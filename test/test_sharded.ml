(* The sharded multi-TM family. Pins: single-shard transactions take the
   fast path (a read-only commit emits zero coordination events, a
   one-shard writer touches exactly one fence); genuinely cross-shard
   commits are opacity-clean under the streaming monitor (every sharded
   registry TM, and — via QCheck — random mixes and fault plans on both
   machine engines); the sharded registry TMs are bit-identical across
   engines; and the [shards = 1] degenerate case is operation-for-operation
   identical to the inner TM (every step-form registry TM, full-trace
   equality on both engines). *)

open Ptm_machine
open Ptm_core

module Sm = Proc.Step

let ( let* ) = Sm.bind
let of_q t = QCheck_alcotest.to_alcotest t

module X1 = struct
  let shards = 1
end

(* ------------------------------------------------------------------ *)
(* Fast paths: coordination cells touched only when necessary           *)
(* ------------------------------------------------------------------ *)

(* Addresses of this machine's cells whose name matches [p]. *)
let addrs_matching m p =
  let mem = Machine.memory m in
  let rec go a acc =
    if a >= Memory.size mem then acc
    else
      go (a + 1)
        (if p (Memory.name mem a) then a :: acc else acc)
  in
  go 0 []

let contains_sub ~sub s =
  let n = String.length sub and l = String.length s in
  let rec go i = i + n <= l && (String.sub s i n = sub || go (i + 1)) in
  go 0

let touched_addrs o =
  List.sort_uniq compare
    (List.map
       (fun (e : Trace.mem_event) -> e.addr)
       (Trace.mem_events (Machine.trace o.Runner.machine)))

let test_read_only_zero_coordination () =
  (* read-only transactions: t-reads may sample fences and seqlocks (that
     is how stable windows are checked), but nothing is ever acquired,
     published or bumped — zero nontrivial events on coordination cells,
     and the commits themselves are event-free *)
  let w =
    Workload.random ~seed:3 ~nprocs:3 ~nobjs:8 ~txs_per_proc:3 ~ops_per_tx:4
      ~write_ratio:0.0 ()
  in
  let (module T) =
    Option.get (Ptm_tms.Registry.by_name "norec.x4")
  in
  let o = Runner.run (module T) ~retries:2 ~schedule:Runner.Round_robin w in
  Alcotest.(check bool) "commits" true (o.Runner.commits > 0);
  let coord =
    addrs_matching o.Runner.machine (fun n ->
        contains_sub ~sub:".fence[" n || contains_sub ~sub:".seq[" n)
  in
  let nontrivial_coord =
    List.filter
      (fun (e : Trace.mem_event) ->
        List.mem e.addr coord && not (Primitive.is_trivial e.prim))
      (Trace.mem_events (Machine.trace o.Runner.machine))
  in
  Alcotest.(check int)
    "no nontrivial coordination event" 0
    (List.length nontrivial_coord)

let test_single_shard_one_fence () =
  (* writes confined to shard 0 (objects 0 and 4 of 8, under 4 shards):
     fence[0]/seq[0] may appear, the other shards' fences must not *)
  let w =
    Workload.random ~seed:4 ~nprocs:3 ~nobjs:2 ~txs_per_proc:3 ~ops_per_tx:3
      ~write_ratio:1.0 ()
  in
  let w =
    {
      Workload.nobjs = 8;
      procs =
        Array.map
          (List.map
             (List.map (function
               | Workload.R x -> Workload.R (x * 4)
               | Workload.W (x, v) -> Workload.W (x * 4, v))))
          w.Workload.procs;
    }
  in
  let (module T) = Option.get (Ptm_tms.Registry.by_name "norec.x4") in
  let o = Runner.run (module T) ~retries:2 ~schedule:Runner.Round_robin w in
  Alcotest.(check bool) "commits" true (o.Runner.commits > 0);
  let touched = touched_addrs o in
  let fence s = contains_sub ~sub:(Printf.sprintf ".fence[%d]" s) in
  let fenced s =
    List.exists
      (fun a -> List.mem a touched)
      (addrs_matching o.Runner.machine (fence s))
  in
  Alcotest.(check bool) "shard 0's fence is used" true (fenced 0);
  for s = 1 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "shard %d's fence is never touched" s)
      false (fenced s)
  done

(* ------------------------------------------------------------------ *)
(* Cross-shard commits: opacity-clean on every sharded registry TM      *)
(* ------------------------------------------------------------------ *)

let test_cross_shard_opacity () =
  List.iter
    (fun (module T : Tm_intf.S) ->
      (* bank transfers across 8 accounts under 4 shards: most touch two
         shards, so multi-fence commits dominate *)
      let w =
        Workload.bank ~nprocs:3 ~naccounts:8 ~transfers_per_proc:4 ~seed:9
      in
      let o =
        Runner.run (module T) ~retries:4 ~monitor:Runner.Monitor_stream
          ~schedule:(Runner.Random_sched 13) w
      in
      Alcotest.(check bool) (T.name ^ ": commits") true (o.Runner.commits > 0);
      (match o.Runner.monitor with
      | Runner.Monitor_ok _ -> ()
      | Runner.Opacity_violation v ->
          Alcotest.failf "%s: opacity violation: %a" T.name
            Opacity_stream.pp_violation v
      | Runner.Not_monitored | Runner.Monitor_inconclusive _ ->
          Alcotest.failf "%s: monitor gave no verdict" T.name);
      (* the run really was cross-shard: at least two distinct fences saw
         traffic *)
      let touched = touched_addrs o in
      let fences_used =
        List.filter
          (fun a -> List.mem a touched)
          (addrs_matching o.Runner.machine (contains_sub ~sub:".fence["))
      in
      Alcotest.(check bool)
        (T.name ^ ": multiple fences engaged")
        true
        (List.length fences_used >= 2))
    Ptm_tms.Registry.sharded

(* ------------------------------------------------------------------ *)
(* Engines agree; shards = 1 is a full passthrough                      *)
(* ------------------------------------------------------------------ *)

let status_tag m pid =
  match Machine.status m pid with
  | Machine.Idle -> "idle"
  | Machine.Runnable -> "runnable"
  | Machine.Terminated -> "terminated"
  | Machine.Halted -> "halted"
  | Machine.Crashed e -> "crashed: " ^ Printexc.to_string e

let fingerprint ~nprocs m =
  ( Trace.entries (Machine.trace m),
    List.init nprocs (Machine.steps_of m),
    List.init nprocs (status_tag m) )

(* Interpret a workload transaction as a step program over an
   instrumented context. *)
let rec prog_of_ops read write = function
  | [] -> Sm.return (Ok ())
  | op :: rest -> (
      let* r =
        match op with
        | Workload.R x ->
            let* r = read x in
            Sm.return (Result.map (fun (_ : int) -> ()) r)
        | Workload.W (x, v) -> write x v
      in
      match r with
      | Error `Abort -> Sm.return (Error `Abort)
      | Ok () -> prog_of_ops read write rest)

let nprocs_of (w : Workload.t) = Array.length w.Workload.procs

let mk_step_run (module T : Tm_intf.S_step) ?observer ?(faults = []) ~engine
    (w : Workload.t) =
  let nprocs = nprocs_of w in
  let m = Machine.create ~engine ~nprocs () in
  Trace.set_observer (Machine.trace m) observer;
  let module R = Runner.Make_step (T) in
  let ctx = R.init m ~nobjs:w.Workload.nobjs in
  Machine.set_faults m faults;
  Array.iteri
    (fun pid txs ->
      Machine.spawn_step m pid
        (Sm.iter
           (fun ops ->
             let* (_ : (unit, Tm_intf.abort) result) =
               R.atomically ctx ~pid ~retries:2 (fun tx ->
                   prog_of_ops (R.read ctx tx) (R.write ctx tx) ops)
             in
             Sm.return ())
           txs))
    w.Workload.procs;
  m

let cross_shard_w =
  Workload.bank ~nprocs:3 ~naccounts:8 ~transfers_per_proc:3 ~seed:17

let test_step_engines_bit_identical () =
  List.iter
    (fun ((module T : Tm_intf.S_step) as tm) ->
      List.iter
        (fun seed ->
          let run engine =
            let m = mk_step_run tm ~engine cross_shard_w in
            Sched.random ~seed m;
            Machine.check_crashes m;
            fingerprint ~nprocs:(nprocs_of cross_shard_w) m
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d: Steps == Fibers" T.name seed)
            true
            (run Machine.Fibers = run Machine.Steps))
        [ 1; 7; 42 ])
    Ptm_tms.Registry.sharded_stepwise

(* [shards = 1] is a full passthrough: on both engines, the x1 wrapper of
   every step-form registry TM is trace-identical to the bare TM. *)
let test_shards1_passthrough () =
  let w =
    Workload.random ~seed:21 ~nprocs:3 ~nobjs:6 ~txs_per_proc:3 ~ops_per_tx:4
      ()
  in
  List.iter
    (fun ((module T : Tm_intf.S_step) as tm) ->
      let module S1 = Ptm_tms.Sharded.Make (X1) (T) in
      List.iter
        (fun engine ->
          let go tm =
            let m = mk_step_run tm ~engine w in
            Sched.random ~seed:5 m;
            Machine.check_crashes m;
            fingerprint ~nprocs:(nprocs_of w) m
          in
          Alcotest.(check bool)
            (T.name ^ ": x1 wrapper trace-identical to the bare TM")
            true
            (go tm = go (module S1)))
        [ Machine.Fibers; Machine.Steps ])
    Ptm_tms.Registry.stepwise

(* ------------------------------------------------------------------ *)
(* QCheck: random mixes + fault plans, opacity-clean on both engines    *)
(* ------------------------------------------------------------------ *)

let qcheck_cross_shard_opacity =
  let gen =
    QCheck2.Gen.(
      let workload =
        bind (int_range 2 3) (fun nprocs ->
            bind (int_range 4 10) (fun nobjs ->
                map3
                  (fun seed (txs, ops) (wr, zipf) ->
                    Workload.random ~seed ~nprocs ~nobjs ~txs_per_proc:txs
                      ~ops_per_tx:ops ~write_ratio:wr
                      ~dist:
                        (if zipf then Workload.Zipf 0.9 else Workload.Uniform)
                      ())
                  (int_bound 9999)
                  (pair (int_range 1 3) (int_range 1 4))
                  (pair (oneofl [ 0.0; 0.3; 0.7; 1.0 ]) bool)))
      in
      let faults =
        oneof
          [
            return [];
            map2 (fun pid at -> [ Fault.crash ~pid ~at ]) (int_bound 1)
              (int_bound 20);
            map2
              (fun pid at -> [ Fault.stall ~pid ~at ~steps:5 ])
              (int_bound 1) (int_bound 20);
            map2 (fun pid op -> [ Fault.abort ~pid ~op ]) (int_bound 1)
              (int_bound 5);
          ]
      in
      pair workload (pair faults (int_bound 9999)))
  in
  let print (w, (faults, seed)) =
    Format.asprintf "%a faults=%s seed=%d" Workload.pp w
      (String.concat ","
         (List.map
            (fun (f : Fault.spec) -> Printf.sprintf "p%d@%d" f.pid f.at)
            faults))
      seed
  in
  let tm = Option.get (Ptm_tms.Registry.stepwise_by_name "norec.x4") in
  QCheck2.Test.make ~count:120 ~print
    ~name:"sharded: random mixes + faults opacity-clean on both engines" gen
    (fun (w, (faults, seed)) ->
      let verdicts =
        List.map
          (fun engine ->
            let chk = Opacity_stream.create () in
            let m =
              mk_step_run tm ~engine ~faults
                ~observer:(Opacity_stream.on_entry chk)
                w
            in
            (* crashes can leave survivors spinning on a dead fence-holder:
               a budget trip is expected there, never a violation *)
            (try Sched.random ~seed ~max_steps:30_000 m
             with Sched.Out_of_steps -> ());
            Machine.check_crashes m;
            ( (match Opacity_stream.verdict chk with
              | Opacity_stream.Violation v ->
                  QCheck2.Test.fail_reportf "opacity violation: %a"
                    Opacity_stream.pp_violation v
              | Opacity_stream.Opaque | Opacity_stream.Inconclusive _ -> ()),
              fingerprint ~nprocs:(nprocs_of w) m ))
          [ Machine.Fibers; Machine.Steps ]
      in
      match verdicts with
      | [ a; b ] -> a = b
      | _ -> assert false)

let () =
  Alcotest.run "sharded"
    [
      ( "passthrough",
        [
          Alcotest.test_case "shards=1 == inner TM (registry-wide)" `Quick
            test_shards1_passthrough;
        ] );
      ( "fast-path",
        [
          Alcotest.test_case "read-only: zero coordination events" `Quick
            test_read_only_zero_coordination;
          Alcotest.test_case "single shard: one fence" `Quick
            test_single_shard_one_fence;
        ] );
      ( "cross-shard",
        [
          Alcotest.test_case "bank mixes opacity-clean (all sharded TMs)"
            `Quick test_cross_shard_opacity;
          of_q qcheck_cross_shard_opacity;
        ] );
      ( "engines",
        [
          Alcotest.test_case "Steps == Fibers" `Quick
            test_step_engines_bit_identical;
        ] );
    ]
