type model = Cc_write_through | Cc_write_back | Dsm

let model_name = function
  | Cc_write_through -> "CC/WT"
  | Cc_write_back -> "CC/WB"
  | Dsm -> "DSM"

let all_models = [ Cc_write_through; Cc_write_back; Dsm ]

type counts = { per_pid : int array; total : int }

(* The one cache simulator (the interface describes the epoch-stamped
   state). [seen] is laid out address-major, [addr * nprocs + pid], so
   growing for fresh addresses is a plain extend-and-blit. *)
module Stream = struct
  type t = {
    model : model;
    memory : Memory.t;
    nprocs : int;
    per_pid : int array;
    mutable total : int;
    mutable epoch : int array;
    mutable seen : int array;
    mutable excl : int array;
  }

  let create model ~nprocs memory =
    let cells = max 16 (Memory.size memory) in
    {
      model;
      memory;
      nprocs;
      per_pid = Array.make nprocs 0;
      total = 0;
      epoch = Array.make cells 0;
      seen = Array.make (cells * nprocs) (-1);
      excl = Array.make cells (-1);
    }

  let grow t addr =
    let old = Array.length t.epoch in
    let cells = max (addr + 1) (2 * old) in
    let extend a per fill =
      let b = Array.make (cells * per) fill in
      Array.blit a 0 b 0 (old * per);
      b
    in
    t.epoch <- extend t.epoch 1 0;
    t.seen <- extend t.seen t.nprocs (-1);
    t.excl <- extend t.excl 1 (-1)

  (* One access through the model's transition table; [true] iff it is an
     RMR. Write-through: a read misses on a stale stamp, a write always
     misses but leaves the writer's own copy valid (the store updates it
     in place on its way to memory). Write-back: a read misses on a stale
     stamp and demotes the exclusive holder, a write misses unless the
     writer holds the line exclusively. *)
  let access t ~pid ~addr ~trivial =
    match t.model with
    | Dsm -> (
        match Memory.owner t.memory addr with
        | Some o -> o <> pid
        | None -> true)
    | (Cc_write_through | Cc_write_back) as model ->
        if addr >= Array.length t.epoch then grow t addr;
        let i = (addr * t.nprocs) + pid in
        let e = t.epoch.(addr) in
        if trivial then
          if t.seen.(i) = e then false
          else begin
            t.seen.(i) <- e;
            t.excl.(addr) <- -1;
            true
          end
        else if
          (match model with Cc_write_back -> t.excl.(addr) = pid | _ -> false)
        then false
        else begin
          t.epoch.(addr) <- e + 1;
          t.seen.(i) <- e + 1;
          t.excl.(addr) <- pid;
          true
        end

  let feed t ~pid ~addr ~trivial =
    if access t ~pid ~addr ~trivial then begin
      t.per_pid.(pid) <- t.per_pid.(pid) + 1;
      t.total <- t.total + 1
    end

  let counts t = { per_pid = Array.copy t.per_pid; total = t.total }
end

let replay model ~nprocs memory events charge =
  let s = Stream.create model ~nprocs memory in
  List.iter
    (fun (e : Trace.mem_event) ->
      if
        Stream.access s ~pid:e.pid ~addr:e.addr
          ~trivial:(Primitive.is_trivial e.prim)
      then charge e)
    events

let iter model memory trace charge =
  let events = Trace.mem_events trace in
  let nprocs =
    List.fold_left (fun n (e : Trace.mem_event) -> max n (e.pid + 1)) 1 events
  in
  replay model ~nprocs memory events charge

let count model ~nprocs memory trace =
  let per_pid = Array.make nprocs 0 in
  let total = ref 0 in
  replay model ~nprocs memory (Trace.mem_events trace) (fun e ->
      per_pid.(e.Trace.pid) <- per_pid.(e.Trace.pid) + 1;
      incr total);
  { per_pid; total = !total }
