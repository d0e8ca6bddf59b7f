open Ptm_machine

(* The history instrumentation, as plain functions that emit no event of
   their own: [Make] and [Make_step] below only sequence them, each in its
   own program form.

   The transaction-id counter lives in a machine cell accessed with
   peek/poke (no events, so ids are free in the step model): a captured
   [ref] would keep counting across explorer machine re-runs, whereas the
   cell is restored with the rest of the machine, so every re-run hands
   out the same ids as a fresh one. The per-pid t-operation counters are
   cells for the same reason. *)
type 'st ctx = {
  state : 'st;
  machine : Machine.t;
  mem : Memory.t;
  next_id : Memory.addr;
  opix : Memory.addr array;  (* per-pid t-operation counter *)
}

let make_ctx machine state =
  let next_id = Machine.alloc machine ~name:"runner.next_id" (Value.Int 0) in
  let opix =
    Array.init (Machine.nprocs machine) (fun i ->
        Machine.alloc machine
          ~name:(Printf.sprintf "runner.opix.p%d" i)
          (Value.Int 0))
  in
  { state; machine; mem = Machine.memory machine; next_id; opix }

type 'inner handle = { pid : int; id : int; inner : 'inner; mutable dead : bool }

(* Post-increment a counter cell. *)
let bump ctx cell =
  let k = Value.to_int (Memory.peek ctx.mem cell) in
  Memory.poke ctx.mem cell (Value.int_ (k + 1));
  k

let new_handle ctx ~pid fresh =
  let id = bump ctx ctx.next_id in
  { pid; id; inner = fresh ctx.state ~pid ~id; dead = false }

(* Entry to a t-operation: a retired handle is rejected, then the
   operation consumes one slot of its pid's op-index counter. The fault
   layer's injected aborts are decided here, at the runner boundary: a due
   [Fault.Abort] turns the operation into an abort response without
   invoking the TM ([true]), and retires the handle exactly as a
   TM-decided abort does. *)
let injected ctx h =
  if h.dead then invalid_arg "Runner: use of dead transaction";
  let due =
    Machine.abort_due ctx.machine h.pid ~op_index:(bump ctx ctx.opix.(h.pid))
  in
  if due then h.dead <- true;
  due

let inv h op = History.Tx_inv { pid = h.pid; tx = h.id; op }
let res h op res = History.Tx_res { pid = h.pid; tx = h.id; op; res }

(* An injected abort's notes: the invocation, the [Tx_injected_abort] mark
   that tells the progress checkers the abort was fault-injected, and the
   abort response. *)
let injected_notes h op =
  [
    inv h op;
    History.Tx_injected_abort { pid = h.pid; tx = h.id };
    res h op History.RAbort;
  ]

(* The response note of the TM's outcome. An abort or a commit retires the
   handle. *)
let response h op res_of r =
  let v = match r with Ok a -> res_of a | Error `Abort -> History.RAbort in
  (match v with History.RAbort | History.RCommit -> h.dead <- true | _ -> ());
  res h op v

let rval v = History.RVal v
let rok () = History.ROk
let rcommit () = History.RCommit

module Make (T : Tm_intf.S) = struct
  type nonrec ctx = T.t ctx

  let init machine ~nobjs = make_ctx machine (T.create machine ~nobjs)
  let tm_state ctx = ctx.state

  type tx = T.tx handle

  let tx_id tx = tx.id
  let begin_tx ctx ~pid = new_handle ctx ~pid T.fresh

  let instrument ctx tx op res_of run =
    if injected ctx tx then begin
      List.iter Proc.note (injected_notes tx op);
      Error `Abort
    end
    else begin
      Proc.note (inv tx op);
      let r = run () in
      Proc.note (response tx op res_of r);
      r
    end

  let read ctx tx x =
    instrument ctx tx (History.Read x) rval (fun () ->
        T.read ctx.state tx.inner x)

  let write ctx tx x v =
    instrument ctx tx (History.Write (x, v)) rok (fun () ->
        T.write ctx.state tx.inner x v)

  let commit ctx tx =
    instrument ctx tx History.Try_commit rcommit (fun () ->
        T.try_commit ctx.state tx.inner)

  let atomically ctx ~pid ~retries body =
    let rec attempt k =
      let tx = begin_tx ctx ~pid in
      let r =
        match body tx with
        | Ok a -> Result.map (fun () -> a) (commit ctx tx)
        | Error `Abort -> Error `Abort
      in
      match r with Error `Abort when k < retries -> attempt (k + 1) | r -> r
    in
    attempt 0
end

(* Every t-operation a step-machine program, so instrumented TMs run on
   either machine backend. *)
module Make_step (T : Tm_intf.S_step) = struct
  module Sm = Proc.Step

  let ( let* ) = Sm.bind

  type nonrec ctx = T.t ctx

  let init machine ~nobjs = make_ctx machine (T.create machine ~nobjs)
  let tm_state ctx = ctx.state

  type tx = T.tx handle

  let tx_id tx = tx.id

  let begin_tx ctx ~pid =
    Sm.suspend @@ fun () -> Sm.return (new_handle ctx ~pid T.fresh)

  let instrument ctx tx op res_of run =
    Sm.suspend @@ fun () ->
    if injected ctx tx then
      Sm.map (fun () -> Error `Abort) (Sm.iter Sm.note (injected_notes tx op))
    else
      let* () = Sm.note (inv tx op) in
      let* r = run () in
      let* () = Sm.note (response tx op res_of r) in
      Sm.return r

  let read ctx tx x =
    instrument ctx tx (History.Read x) rval (fun () ->
        T.read ctx.state tx.inner x)

  let write ctx tx x v =
    instrument ctx tx (History.Write (x, v)) rok (fun () ->
        T.write ctx.state tx.inner x v)

  let commit ctx tx =
    instrument ctx tx History.Try_commit rcommit (fun () ->
        T.try_commit ctx.state tx.inner)

  let atomically ctx ~pid ~retries body =
    Sm.suspend @@ fun () ->
    let rec attempt k =
      let* tx = begin_tx ctx ~pid in
      let* r = body tx in
      let* r =
        match r with
        | Ok a -> Sm.map (Result.map (fun () -> a)) (commit ctx tx)
        | Error `Abort -> Sm.return (Error `Abort)
      in
      match r with
      | Error `Abort when k < retries -> attempt (k + 1)
      | r -> Sm.return r
    in
    attempt 0
end

let exec_ops ~read ~write ctx tx ops =
  let rec go = function
    | [] -> Ok ()
    | Workload.R x :: rest -> (
        match read ctx tx x with
        | Ok (_ : int) -> go rest
        | Error `Abort -> Error `Abort)
    | Workload.W (x, v) :: rest -> (
        match write ctx tx x v with
        | Ok () -> go rest
        | Error `Abort -> Error `Abort)
  in
  go ops

type retry_policy =
  | Immediate
  | Backoff of { base : int; factor : int; cap : int }

let validate_policy ~retries policy =
  if retries < 0 then invalid_arg "Runner.run: retries must be >= 0";
  match policy with
  | Immediate -> ()
  | Backoff { base; factor; cap } ->
      if base < 0 || factor < 1 || cap < base then
        invalid_arg "Runner.run: need base >= 0, factor >= 1, cap >= base"

module Livelock = struct
  type t = {
    window : int;
    aborts_by : int array;
    mutable since_commit : int;
    mutable starved_at_trip : int list option;
  }

  let create ?(window = 64) ~nprocs () =
    if window < 1 then invalid_arg "Livelock.create: window must be >= 1";
    if nprocs < 1 then invalid_arg "Livelock.create: nprocs must be >= 1";
    {
      window;
      aborts_by = Array.make nprocs 0;
      since_commit = 0;
      starved_at_trip = None;
    }

  let looping d =
    List.filter
      (fun p -> d.aborts_by.(p) > 0)
      (List.init (Array.length d.aborts_by) Fun.id)

  let record_abort d pid =
    d.aborts_by.(pid) <- d.aborts_by.(pid) + 1;
    d.since_commit <- d.since_commit + 1;
    if d.since_commit >= d.window && d.starved_at_trip = None then
      d.starved_at_trip <- Some (looping d)

  let record_commit d pid =
    d.aborts_by.(pid) <- 0;
    d.since_commit <- 0

  let tripped d = d.starved_at_trip <> None

  let starved d =
    match d.starved_at_trip with Some ps -> ps | None -> looping d
end

type monitor = Monitor_off | Monitor_stream

type monitor_result =
  | Not_monitored
  | Monitor_ok of Opacity_stream.stats
  | Opacity_violation of Opacity_stream.violation
  | Monitor_inconclusive of string

type outcome = {
  machine : Machine.t;
  history : History.t;
  commits : int;
  aborts : int;
  starved : int list;
  out_of_steps : bool;
  monitor : monitor_result;
}

type schedule = Round_robin | Random_sched of int

let run (module T : Tm_intf.S) ?(retries = 0) ?(policy = Immediate)
    ?(faults = []) ?livelock_window ?max_steps ?(monitor = Monitor_off)
    ~schedule (w : Workload.t) =
  validate_policy ~retries policy;
  let module R = Make (T) in
  let nprocs = Array.length w.Workload.procs in
  let machine = Machine.create ~nprocs () in
  let ctx = R.init machine ~nobjs:w.Workload.nobjs in
  Machine.set_faults machine faults;
  (* Online monitor: a streaming opacity checker attached to the trace's
     note observer — it sees every t-operation boundary as it is recorded
     (under any sink) and never influences the run. *)
  let mon =
    match monitor with
    | Monitor_off -> None
    | Monitor_stream ->
        let mon = Opacity_stream.create () in
        Ptm_machine.Trace.set_observer (Machine.trace machine)
          (Some (Opacity_stream.on_entry mon));
        Some mon
  in
  let backoff =
    Array.init nprocs (fun i ->
        Machine.alloc machine
          ~name:(Printf.sprintf "runner.backoff.p%d" i)
          (Value.Int 0))
  in
  let det =
    Option.map (fun window -> Livelock.create ~window ~nprocs ()) livelock_window
  in
  let delay k =
    match policy with
    | Immediate -> 0
    | Backoff { base; factor; cap } ->
        let rec go d i =
          if i <= 0 || d >= cap then min d cap else go (d * factor) (i - 1)
        in
        go base k
  in
  let commits = ref 0 and aborts = ref 0 in
  let gave_up () =
    match det with Some d -> Livelock.tripped d | None -> false
  in
  let exec_tx pid (spec : Workload.tx_spec) =
    let rec attempt k =
      let tx = R.begin_tx ctx ~pid in
      let result =
        match exec_ops ~read:R.read ~write:R.write ctx tx spec with
        | Ok () -> R.commit ctx tx
        | Error `Abort -> Error `Abort
      in
      match result with
      | Ok () ->
          incr commits;
          (match det with Some d -> Livelock.record_commit d pid | None -> ())
      | Error `Abort ->
          incr aborts;
          (match det with Some d -> Livelock.record_abort d pid | None -> ());
          if k < retries && not (gave_up ()) then begin
            (* Realize the back-off as machine steps: each waited slot is one
               (trivial) read of this pid's scratch cell, so delays occupy
               schedule positions and rival transactions can run meanwhile. *)
            for _ = 1 to delay k do
              ignore (Proc.read backoff.(pid) : Value.t)
            done;
            attempt (k + 1)
          end
    in
    attempt 0
  in
  Array.iteri
    (fun pid specs ->
      Machine.spawn machine pid (fun () ->
          List.iter (fun s -> if not (gave_up ()) then exec_tx pid s) specs))
    w.Workload.procs;
  let out_of_steps =
    try
      (match schedule with
      | Round_robin -> Sched.round_robin ?max_steps machine
      | Random_sched seed -> Sched.random ~seed ?max_steps machine);
      false
    with Sched.Out_of_steps -> true
  in
  Machine.check_crashes machine;
  let history = History.of_trace (Machine.trace machine) in
  let starved =
    match det with
    | Some d when Livelock.tripped d -> Livelock.starved d
    | _ -> []
  in
  let monitor =
    match mon with
    | None -> Not_monitored
    | Some m -> (
        Ptm_machine.Trace.set_observer (Machine.trace machine) None;
        match Opacity_stream.verdict m with
        | Opacity_stream.Opaque -> Monitor_ok (Opacity_stream.stats m)
        | Opacity_stream.Violation v -> Opacity_violation v
        | Opacity_stream.Inconclusive msg -> Monitor_inconclusive msg)
  in
  {
    machine;
    history;
    commits = !commits;
    aborts = !aborts;
    starved;
    out_of_steps;
    monitor;
  }
