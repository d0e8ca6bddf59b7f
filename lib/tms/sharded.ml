open Ptm_machine
module Sm = Proc.Step

let ( let* ) = Sm.bind

(* Sharded multi-TM: N independent inner TM instances keyed by object hash
   (shard of object [x] is [x mod shards]; its index inside the shard is
   [x / shards]), glued together by a commit-fence two-phase protocol kept
   entirely at this layer:

   - per shard, a {e fence} F_s (a CAS lock, value 0 = free, else owner
     pid + 1) and a {e seqlock} SQ_s (bumped once per publication to the
     shard, while the fence is held);
   - t-reads never touch a long-lived inner transaction: each uncached read
     is a one-shot {e mini-transaction} against its shard (fresh / read /
     try_commit), sampled inside a stable window — fence clear (or our own)
     before and after, seqlock unchanged across — so a value torn by an
     in-flight publication is never returned;
   - t-writes are buffered locally; nothing is visible before try_commit;
   - reads are value-validated, NOrec-style: whenever any touched shard's
     seqlock moves, the whole read cache is re-sampled and compared, and a
     changed value aborts the transaction (only a genuinely conflicting
     commit can cause this);
   - try_commit of an updating transaction acquires the fences of every
     shard it touched, written or read, in ascending order (deadlock-free),
     revalidates the read cache under them, then publishes each shard's writes as a fresh
     write-only inner transaction (retried until the inner TM accepts it —
     under the fence only transient mini-reads can conflict), bumps the
     shard's seqlock {e before} releasing its fence, and releases.

   Single-shard transactions take the fast path: a read-only transaction
   commits with zero shared-memory events (its cache was validated at the
   last read), and a transaction writing a single shard acquires only that
   shard's fence — the cross-shard coordinator is exactly the multi-fence
   acquisition, which such transactions never execute. With [shards = 1]
   the functor degenerates further: every operation passes straight through
   to the single inner instance, event for event.

   Every operation is a step-machine program ({!Proc.Step}), so a sharded
   TM runs on either machine backend; the registry derives the
   direct-style form with [Tm_intf.Of_step].

   A crash while holding a fence starves later writers and readers of that
   shard (they spin in the stable-window loop) but can never expose a torn
   cross-shard commit: the seqlock bump and the fence release bracket every
   publication, so no stable window closes around partial state. Safety
   survives crash-under-load; liveness does not — the same trade every
   lock-based TM in the registry makes. *)

module type Config = sig
  val shards : int
end

(* Inner sub-transaction ids must not collide with outer ids: several TMs
   use the id as their orec ownership token, and two live inner
   transactions sharing an id could be mistaken for one owner. Sub-ids are
   drawn from a dedicated machine cell (peek/poke, event-free — so explorer
   re-runs replay them) offset far above any outer id a run can reach. *)
let sub_id_base = 1_000_000_000

module Make (C : Config) (T : Ptm_core.Tm_intf.S_step) = struct
  let () = if C.shards < 1 then invalid_arg "Sharded.Make: shards must be >= 1"

  let name = Printf.sprintf "%s.x%d" T.name C.shards

  let props =
    if C.shards = 1 then T.props
    else
      {
        Ptm_core.Tm_intf.opaque = true;
        weak_dap = false;
        invisible_reads = false;
        weak_invisible_reads = false;
        progressive = false;
        strongly_progressive = false;
      }

  type t = {
    mem : Memory.t;
    inner : T.t array;
    fence : Memory.addr array;
    seq : Memory.addr array;
    sub_id : Memory.addr;
  }

  let shard x = x mod C.shards
  let slot x = x / C.shards

  (* objects of shard [s]: { x | x mod shards = s } *)
  let shard_size ~nobjs s =
    if s >= nobjs then 0 else ((nobjs - s - 1) / C.shards) + 1

  let create machine ~nobjs =
    let inner =
      Array.init C.shards (fun s ->
          T.create machine ~nobjs:(shard_size ~nobjs s))
    in
    if C.shards = 1 then
      (* full passthrough: allocate nothing of our own, so the machine —
         run-time allocations of the inner TM included — is cell-for-cell
         the one the bare TM would build *)
      { mem = Machine.memory machine; inner; fence = [||]; seq = [||];
        sub_id = -1 }
    else
      let fence =
        Array.init C.shards (fun s ->
            Machine.alloc machine
              ~name:(Printf.sprintf "%s.fence[%d]" name s)
              (Value.Int 0))
      in
      let seq =
        Array.init C.shards (fun s ->
            Machine.alloc machine
              ~name:(Printf.sprintf "%s.seq[%d]" name s)
              (Value.Int 0))
      in
      let sub_id =
        Machine.alloc machine ~name:(name ^ ".sub_id") (Value.Int 0)
      in
      { mem = Machine.memory machine; inner; fence; seq; sub_id }

  type tx = {
    pid : int;
    pass : T.tx option;  (* [shards = 1]: full passthrough *)
    rcache : (int, int) Hashtbl.t;  (* obj -> first value read *)
    wbuf : (int, int) Hashtbl.t;  (* obj -> last value written *)
    mutable worder : int list;  (* distinct written objects, newest first *)
    shard_seq : int array;  (* SQ_s at last validation; -1 = untouched *)
  }

  let fresh t ~pid ~id =
    {
      pid;
      pass = (if C.shards = 1 then Some (T.fresh t.inner.(0) ~pid ~id) else None);
      rcache = Hashtbl.create 8;
      wbuf = Hashtbl.create 8;
      worder = [];
      shard_seq = Array.make C.shards (-1);
    }

  let next_sub t =
    let n = Value.to_int (Memory.peek t.mem t.sub_id) in
    Memory.poke t.mem t.sub_id (Value.int_ (n + 1));
    sub_id_base + n

  (* One one-shot read of shard [s]'s slot [sx]: [None] if the inner TM
     aborted the attempt (the caller re-samples). An aborted inner handle
     has already released everything it held, so abandoning it is safe. *)
  let mini_read t ~pid s sx =
    Sm.suspend @@ fun () ->
    let sub = T.fresh t.inner.(s) ~pid ~id:(next_sub t) in
    let* r = T.read t.inner.(s) sub sx in
    match r with
    | Error `Abort -> Sm.return None
    | Ok v -> (
        let* c = T.try_commit t.inner.(s) sub in
        match c with
        | Ok () -> Sm.return (Some v)
        | Error `Abort -> Sm.return None)

  (* A fence value is benign if clear or our own (we only read through our
     own fence during commit-time validation, when no rival writer can be
     publishing to that shard). *)
  let fence_ok ~pid f = f = 0 || f = pid + 1

  (* Sample (value, seq) of object [x] inside a stable window: fence benign
     before, seqlock unchanged and fence benign after. Publications bump the
     seqlock before releasing the fence, so a window closing clean proves
     the value was committed state for the whole window. *)
  let rec stable_read t ~pid x =
    Sm.suspend @@ fun () ->
    let s = shard x in
    let* f0 = Sm.read_int t.fence.(s) in
    if not (fence_ok ~pid f0) then stable_read t ~pid x
    else
      let* q0 = Sm.read_int t.seq.(s) in
      let* r = mini_read t ~pid s (slot x) in
      match r with
      | None -> stable_read t ~pid x
      | Some v ->
          let* q1 = Sm.read_int t.seq.(s) in
          (* no fence read once the seqlock has moved *)
          if q1 <> q0 then stable_read t ~pid x
          else
            let* f1 = Sm.read_int t.fence.(s) in
            if fence_ok ~pid f1 then Sm.return (v, q0)
            else stable_read t ~pid x

  let touched tx =
    let acc = ref [] in
    for s = C.shards - 1 downto 0 do
      if tx.shard_seq.(s) >= 0 then acc := s :: !acc
    done;
    !acc

  (* Re-sample every cached read and require (a) each value unchanged and
     (b) every touched shard's seqlock steady at one level across the whole
     pass — on success the entire read set was simultaneously committed
     state at the end of the pass. A moved seqlock restarts the pass; a
     changed value is a real conflict and fails it. *)
  let rec revalidate t tx =
    Sm.suspend @@ fun () ->
    let pass = Array.make C.shards (-1) in
    let* () =
      Sm.iter
        (fun s ->
          let* q = Sm.read_int t.seq.(s) in
          pass.(s) <- q;
          Sm.return ())
        (touched tx)
    in
    let entries =
      (* sampled in [Hashtbl.fold] order: the list built by [fold]
         prepends, so reverse it *)
      List.rev (Hashtbl.fold (fun y v acc -> (y, v) :: acc) tx.rcache [])
    in
    let rec check = function
      | [] -> Sm.return `Ok
      | (y, v_old) :: rest ->
          let* v', q' = stable_read t ~pid:tx.pid y in
          if q' <> pass.(shard y) then Sm.return `Restart
          else if v' <> v_old then Sm.return `Fail
          else check rest
    in
    let* outcome = check entries in
    match outcome with
    | `Fail -> Sm.return false
    | `Restart -> revalidate t tx
    | `Ok ->
        let rec steady = function
          | [] -> Sm.return true
          | s :: rest ->
              let* q = Sm.read_int t.seq.(s) in
              if q = pass.(s) then steady rest else Sm.return false
        in
        let* ok = steady (touched tx) in
        if ok then begin
          List.iter (fun s -> tx.shard_seq.(s) <- pass.(s)) (touched tx);
          Sm.return true
        end
        else revalidate t tx

  let read t tx x =
    Sm.suspend @@ fun () ->
    match tx.pass with
    | Some sub -> T.read t.inner.(0) sub (slot x)
    | None -> (
        match Hashtbl.find_opt tx.wbuf x with
        | Some v -> Sm.return (Ok v)
        | None -> (
            match Hashtbl.find_opt tx.rcache x with
            | Some v -> Sm.return (Ok v)
            | None ->
                let* v, q = stable_read t ~pid:tx.pid x in
                let s = shard x in
                let is_new = tx.shard_seq.(s) < 0 in
                let rec any_moved = function
                  | [] -> Sm.return false
                  | s' :: rest ->
                      if s' = s then any_moved rest
                      else
                        let* q' = Sm.read_int t.seq.(s') in
                        if q' <> tx.shard_seq.(s') then Sm.return true
                        else any_moved rest
                in
                (* no seqlock reads once the own-shard check already
                   moved *)
                let* moved =
                  if (not is_new) && tx.shard_seq.(s) <> q then Sm.return true
                  else any_moved (touched tx)
                in
                Hashtbl.replace tx.rcache x v;
                if is_new then tx.shard_seq.(s) <- q;
                if not moved then Sm.return (Ok v)
                else
                  let* ok = revalidate t tx in
                  if ok then Sm.return (Ok v) else Sm.return (Error `Abort)))

  let write t tx x v =
    Sm.suspend @@ fun () ->
    match tx.pass with
    | Some sub -> T.write t.inner.(0) sub (slot x) v
    | None ->
        if not (Hashtbl.mem tx.wbuf x) then tx.worder <- x :: tx.worder;
        Hashtbl.replace tx.wbuf x v;
        Sm.return (Ok ())

  let rec acquire t ~pid s =
    Sm.suspend @@ fun () ->
    let* f = Sm.read_int t.fence.(s) in
    if f <> 0 then acquire t ~pid s
    else
      let* won =
        Sm.cas t.fence.(s) ~expected:(Value.Int 0)
          ~desired:(Value.int_ (pid + 1))
      in
      if won then Sm.return () else acquire t ~pid s

  (* Publish one shard's buffered writes as a fresh write-only inner
     transaction, retried until the inner TM accepts it: we hold the
     shard's fence, so only transient mini-reads can conflict, and nothing
     becomes visible until the inner try_commit lands. *)
  let rec publish t ~pid s writes =
    Sm.suspend @@ fun () ->
    let sub = T.fresh t.inner.(s) ~pid ~id:(next_sub t) in
    let rec go = function
      | [] -> (
          let* c = T.try_commit t.inner.(s) sub in
          match c with
          | Ok () -> Sm.return true
          | Error `Abort -> Sm.return false)
      | (sx, v) :: rest -> (
          let* r = T.write t.inner.(s) sub sx v in
          match r with
          | Ok () -> go rest
          | Error `Abort -> Sm.return false)
    in
    let* ok = go writes in
    if ok then Sm.return () else publish t ~pid s writes

  let try_commit t tx =
    Sm.suspend @@ fun () ->
    match tx.pass with
    | Some sub -> T.try_commit t.inner.(0) sub
    | None ->
        if tx.worder = [] then Sm.return (Ok ())
          (* read-only: the cache was validated as of the last t-read, a
             legal serialization point inside the transaction's interval *)
        else begin
          let wshards = List.sort_uniq compare (List.map shard tx.worder) in
          (* fence every touched shard, written or read, in ascending
             order: ordered acquisition is deadlock-free, and with all
             touched seqlocks frozen the revalidation below cannot race
             (a commit-time mini-read only ever meets its own fence) *)
          let fshards =
            List.sort_uniq compare (wshards @ touched tx)
          in
          let* () = Sm.iter (acquire t ~pid:tx.pid) fshards in
          let* valid =
            if Hashtbl.length tx.rcache > 0 then revalidate t tx
            else Sm.return true
          in
          if not valid then
            let* () =
              Sm.iter
                (fun s -> Sm.write t.fence.(s) (Value.Int 0))
                fshards
            in
            Sm.return (Error `Abort)
          else
            let* () =
              Sm.iter
                (fun s ->
                  let writes =
                    List.rev tx.worder
                    |> List.filter_map (fun x ->
                           if shard x = s then
                             Some (slot x, Hashtbl.find tx.wbuf x)
                           else None)
                  in
                  let* () = publish t ~pid:tx.pid s writes in
                  let* (_ : int) = Sm.faa t.seq.(s) 1 in
                  Sm.return ())
                wshards
            in
            let* () =
              Sm.iter
                (fun s -> Sm.write t.fence.(s) (Value.Int 0))
                fshards
            in
            Sm.return (Ok ())
        end
end
