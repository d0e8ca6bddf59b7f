(* Tests for the instrumented runner: transaction ids, dead-handle guards,
   retry semantics, note well-formedness, and the atomically combinator. *)

open Ptm_machine
open Ptm_core

(* The id, dead-handle and [atomically] tests run over both instrumented
   forms: [Runner.Make] over Dstm on fibers, and [Runner.Make_step] over
   NOrec's step form on the Steps engine. A form exposes the runner's
   operations as programs of its own kind ('a prog) and spawns them. *)
module type FORM = sig
  val name : string
  val machine : nprocs:int -> Machine.t

  type ctx
  type tx
  type 'a prog

  val init : Machine.t -> nobjs:int -> ctx
  val return : 'a -> 'a prog
  val bind : 'a prog -> ('a -> 'b prog) -> 'b prog
  val begin_tx : ctx -> pid:int -> tx prog
  val tx_id : tx -> int
  val read : ctx -> tx -> int -> (int, Tm_intf.abort) result prog
  val write : ctx -> tx -> int -> int -> (unit, Tm_intf.abort) result prog
  val commit : ctx -> tx -> (unit, Tm_intf.abort) result prog

  val atomically :
    ctx -> pid:int -> retries:int -> (tx -> ('a, Tm_intf.abort) result prog) ->
    ('a, Tm_intf.abort) result prog

  val spawn : Machine.t -> int -> unit prog -> unit
end

module Direct : FORM = struct
  module R = Runner.Make (Ptm_tms.Dstm)

  let name = "Make (dstm)"
  let machine ~nprocs = Machine.create ~nprocs ()

  type ctx = R.ctx
  type tx = R.tx
  type 'a prog = unit -> 'a

  let init = R.init
  let return x () = x
  let bind m f () = f (m ()) ()
  let begin_tx ctx ~pid () = R.begin_tx ctx ~pid
  let tx_id = R.tx_id
  let read ctx tx x () = R.read ctx tx x
  let write ctx tx x v () = R.write ctx tx x v
  let commit ctx tx () = R.commit ctx tx

  let atomically ctx ~pid ~retries body () =
    R.atomically ctx ~pid ~retries (fun tx -> body tx ())

  let spawn = Machine.spawn
end

module Step : FORM = struct
  module R = Runner.Make_step (Ptm_tms.Norec.Stepwise)

  let name = "Make_step (norec, Steps engine)"
  let machine ~nprocs = Machine.create ~engine:Machine.Steps ~nprocs ()

  type ctx = R.ctx
  type tx = R.tx
  type 'a prog = 'a Proc.Step.t

  let init = R.init
  let return = Proc.Step.return
  let bind = Proc.Step.bind
  let begin_tx = R.begin_tx
  let tx_id = R.tx_id
  let read = R.read
  let write = R.write
  let commit = R.commit
  let atomically = R.atomically
  let spawn = Machine.spawn_step
end

let forms : (module FORM) list = [ (module Direct); (module Step) ]

let test_tx_ids_unique () =
  List.iter
    (fun (module F : FORM) ->
      let machine = F.machine ~nprocs:2 in
      let ctx = F.init machine ~nobjs:2 in
      let ids = ref [] in
      let rec txs pid n =
        if n = 0 then F.return ()
        else
          F.bind (F.begin_tx ctx ~pid) (fun tx ->
              ids := F.tx_id tx :: !ids;
              F.bind (F.read ctx tx 0) (fun _ ->
                  F.bind (F.commit ctx tx) (fun _ -> txs pid (n - 1))))
      in
      for pid = 0 to 1 do
        F.spawn machine pid (txs pid 3)
      done;
      Sched.round_robin machine;
      Machine.check_crashes machine;
      let sorted = List.sort_uniq compare !ids in
      Alcotest.(check int) (F.name ^ ": six distinct ids") 6
        (List.length sorted))
    forms

(* Using a handle after its transaction committed, or after an injected
   abort, is rejected: the process crashes with [Invalid_argument]. *)
let test_dead_handle_guard () =
  List.iter
    (fun (module F : FORM) ->
      List.iter
        (fun (what, faults) ->
          let machine = F.machine ~nprocs:1 in
          let ctx = F.init machine ~nobjs:2 in
          Machine.set_faults machine faults;
          F.spawn machine 0
            (F.bind (F.begin_tx ctx ~pid:0) (fun tx ->
                 F.bind (F.read ctx tx 0) (fun _ ->
                     F.bind (F.commit ctx tx) (fun _ ->
                         F.bind (F.read ctx tx 1) (fun _ -> F.return ())))));
          ignore (Sched.solo machine 0);
          Alcotest.(check bool)
            (Printf.sprintf "%s: dead handle rejected %s" F.name what)
            true
            (match Machine.status machine 0 with
            | Machine.Crashed (Invalid_argument _) -> true
            | _ -> false))
        [
          ("after commit", []);
          ("after an injected abort", [ Fault.abort ~pid:0 ~op:0 ]);
        ])
    forms

let test_atomically_retries () =
  (* Two processes increment the same object transactionally; with enough
     retries both must succeed despite conflicts. *)
  List.iter
    (fun (module F : FORM) ->
      let machine = F.machine ~nprocs:2 in
      let ctx = F.init machine ~nobjs:1 in
      let rec incrs pid n =
        if n = 0 then F.return ()
        else
          F.bind
            (F.atomically ctx ~pid ~retries:100 (fun tx ->
                 F.bind (F.read ctx tx 0) (function
                   | Error `Abort -> F.return (Error `Abort)
                   | Ok v -> F.write ctx tx 0 (v + 1))))
            (function
              | Ok () -> incrs pid (n - 1)
              | Error `Abort -> failwith "retries exhausted")
      in
      for pid = 0 to 1 do
        F.spawn machine pid (incrs pid 5)
      done;
      Sched.random ~seed:3 machine;
      Machine.check_crashes machine;
      let h = History.of_trace (Machine.trace machine) in
      let committed =
        List.filter
          (fun t -> t.History.status = History.Committed)
          h.History.txns
      in
      Alcotest.(check int)
        (F.name ^ ": ten committed increments")
        10 (List.length committed);
      (* final value via the last committed write *)
      let final =
        List.fold_left
          (fun acc t ->
            match History.writes t with [ (0, v) ] -> max acc v | _ -> acc)
          0 committed
      in
      Alcotest.(check int) (F.name ^ ": counter reached 10") 10 final)
    forms

let test_abort_stops_transaction () =
  (* After an op aborts, the runner records the abort and the spec stops
     issuing; the history shows a transaction ending in RAbort. *)
  let w : Workload.t =
    { Workload.nobjs = 1; procs = [| [ [ Workload.W (0, 1) ] ];
                                     [ [ Workload.W (0, 2) ] ] |] }
  in
  (* force conflict with a scripted interleaving via random search over
     seeds until an abort appears (dstm aborts on lock conflict) *)
  let found = ref false in
  let seed = ref 0 in
  while (not !found) && !seed < 200 do
    incr seed;
    let o = Runner.run (module Ptm_tms.Dstm) ~schedule:(Runner.Random_sched !seed) w in
    if o.Runner.aborts > 0 then begin
      found := true;
      let aborted =
        List.find
          (fun t -> t.History.status = History.Aborted)
          o.Runner.history.History.txns
      in
      match List.rev aborted.History.ops with
      | (_, Some History.RAbort) :: _ -> ()
      | _ -> Alcotest.fail "aborted transaction does not end in RAbort"
    end
  done;
  Alcotest.(check bool) "found a conflicting interleaving" true !found

let test_history_note_well_formed () =
  let w =
    Workload.random ~seed:5 ~nprocs:3 ~nobjs:3 ~txs_per_proc:2 ~ops_per_tx:3 ()
  in
  let o = Runner.run (module Ptm_tms.Tl2) ~retries:1 ~schedule:(Runner.Random_sched 5) w in
  (* every transaction's ops alternate Inv/Res correctly: history extraction
     would raise otherwise; additionally every committed tx ends in
     (Try_commit, RCommit) *)
  List.iter
    (fun t ->
      match t.History.status with
      | History.Committed -> (
          match List.rev t.History.ops with
          | (History.Try_commit, Some History.RCommit) :: _ -> ()
          | _ -> Alcotest.failf "T%d committed without tryC->C" t.History.id)
      | _ -> ())
    o.Runner.history.History.txns

(* A malformed back-off or a negative retry count is rejected at entry, even
   on a conflict-free workload whose run would never reach a retry. *)
let test_bad_backoff_rejected () =
  let w : Workload.t =
    { Workload.nobjs = 1; procs = [| [ [ Workload.W (0, 1) ] ] |] }
  in
  List.iter
    (fun (what, retries, policy) ->
      match
        Runner.run
          (module Ptm_tms.Tl2)
          ~retries ~policy ~schedule:Runner.Round_robin w
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s: malformed retry policy accepted" what)
    [
      ("base -1", 5, Runner.Backoff { base = -1; factor = 2; cap = 16 });
      ("factor 0", 5, Runner.Backoff { base = 1; factor = 0; cap = 16 });
      ("cap < base", 5, Runner.Backoff { base = 8; factor = 2; cap = 4 });
      ("retries -1, back-off", -1, Runner.Backoff { base = 1; factor = 2; cap = 4 });
      ("retries -1, immediate", -1, Runner.Immediate);
    ]

let () =
  Alcotest.run "runner"
    [
      ( "runner",
        [
          Alcotest.test_case "tx ids unique" `Quick test_tx_ids_unique;
          Alcotest.test_case "dead handle guard" `Quick test_dead_handle_guard;
          Alcotest.test_case "atomically retries" `Quick test_atomically_retries;
          Alcotest.test_case "abort stops tx" `Quick test_abort_stops_transaction;
          Alcotest.test_case "notes well-formed" `Quick
            test_history_note_well_formed;
          Alcotest.test_case "malformed backoff rejected" `Quick
            test_bad_backoff_rejected;
        ] );
    ]
