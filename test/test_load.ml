(* The load engine. Small deterministic cells: full accounting (every
   generated transaction ends up committed, failed or unstarted),
   run-to-run determinism, both client models, full-sample opacity
   monitoring (plain and sharded TMs), partial-sample filtering, online
   RMR accounting, and crash-under-load. *)

open Ptm_core

let base =
  {
    Load.default_config with
    Load.clients = 12;
    nprocs = 3;
    nobjs = 16;
    txs_per_client = 6;
    retries = 6;
    seed = 42;
  }

let check_verdict name r =
  match r.Load.verdict with
  | Some Opacity_stream.Opaque -> ()
  | Some (Opacity_stream.Violation v) ->
      Alcotest.failf "%s: opacity violation: %a" name
        Opacity_stream.pp_violation v
  | Some (Opacity_stream.Inconclusive why) ->
      Alcotest.failf "%s: monitor inconclusive: %s" name why
  | None -> Alcotest.failf "%s: monitor not armed" name

let check_accounting cfg (r : Load.result) =
  Alcotest.(check int)
    "all transactions accounted"
    (cfg.Load.clients * cfg.Load.txs_per_client)
    (r.Load.committed + r.Load.failed + r.Load.unstarted)

let test_full_sample_clean () =
  List.iter
    (fun tm_name ->
      let (module T) = Option.get (Ptm_tms.Registry.by_name tm_name) in
      let cfg = { base with Load.sample = 1.0 } in
      let r = Load.run (module T) cfg in
      check_accounting cfg r;
      Alcotest.(check bool) (tm_name ^ ": committed") true (r.Load.committed > 0);
      Alcotest.(check bool)
        (tm_name ^ ": finished within budget")
        false r.Load.out_of_slots;
      Alcotest.(check int)
        (tm_name ^ ": every client monitored")
        cfg.Load.clients r.Load.monitored_clients;
      check_verdict tm_name r)
    [ "norec"; "tl2"; "norec.x4"; "sgl.x4" ]

let test_deterministic () =
  let (module T) = Option.get (Ptm_tms.Registry.by_name "norec.x4") in
  let cfg = { base with Load.rmr_models = Ptm_machine.Rmr.all_models } in
  let key (r : Load.result) =
    (r.Load.committed, r.Load.aborted, r.Load.failed, r.Load.steps,
     r.Load.wasted, r.Load.idle, r.Load.rmr)
  in
  Alcotest.(check bool)
    "same config, same run" true
    (key (Load.run (module T) cfg) = key (Load.run (module T) cfg))

let test_open_loop () =
  let (module T) = Option.get (Ptm_tms.Registry.by_name "norec") in
  let cfg =
    { base with Load.model = Load.Open_loop { period = 400 }; sample = 1.0 }
  in
  let r = Load.run (module T) cfg in
  check_accounting cfg r;
  check_verdict "open loop" r;
  (* a 400-step inter-arrival gap on short transactions leaves idle time *)
  Alcotest.(check bool) "idle ticks happen" true (r.Load.idle > 0)

let test_closed_loop_think () =
  let (module T) = Option.get (Ptm_tms.Registry.by_name "norec") in
  let cfg =
    { base with Load.model = Load.Closed_loop { think = 300 }; sample = 1.0 }
  in
  let r = Load.run (module T) cfg in
  check_accounting cfg r;
  check_verdict "closed loop" r;
  Alcotest.(check bool) "idle ticks happen" true (r.Load.idle > 0)

let test_partial_sample () =
  let (module T) = Option.get (Ptm_tms.Registry.by_name "tl2") in
  let cfg = { base with Load.sample = 0.4 } in
  let r = Load.run (module T) cfg in
  check_accounting cfg r;
  check_verdict "partial sample" r;
  Alcotest.(check bool)
    "a strict subset of clients monitored" true
    (r.Load.monitored_clients > 0
    && r.Load.monitored_clients < cfg.Load.clients)

let test_rmr_accounting () =
  let (module T) = Option.get (Ptm_tms.Registry.by_name "norec") in
  let cfg = { base with Load.rmr_models = Ptm_machine.Rmr.all_models } in
  let r = Load.run (module T) cfg in
  Alcotest.(check int) "three models" 3 (List.length r.Load.rmr);
  List.iter
    (fun (m, n) ->
      Alcotest.(check bool) (m ^ ": RMRs counted") true (n > 0);
      Alcotest.(check bool) (m ^ ": bounded by steps") true (n <= r.Load.steps))
    r.Load.rmr

let test_rmr_does_not_perturb () =
  (* RMR accounting only observes the pending event before each step:
     turning it on must leave the execution itself bit-identical *)
  List.iter
    (fun tm_name ->
      let (module T) = Option.get (Ptm_tms.Registry.by_name tm_name) in
      let key (r : Load.result) =
        (r.Load.committed, r.Load.aborted, r.Load.failed, r.Load.steps,
         r.Load.wasted, r.Load.idle)
      in
      let off = Load.run (module T) { base with Load.rmr_models = [] } in
      let on =
        Load.run (module T)
          { base with Load.rmr_models = Ptm_machine.Rmr.all_models }
      in
      Alcotest.(check bool) (tm_name ^ ": same run") true (key off = key on);
      Alcotest.(check int) (tm_name ^ ": no RMRs when off") 0
        (List.length off.Load.rmr))
    [ "norec"; "norec.x4"; "ofree" ]

(* A contended sharded cell on which a sharded protocol whose stable-window
   read checks the fence even after the seqlock has moved takes a
   different execution. *)
let contended_x4 =
  {
    base with
    Load.clients = 8;
    nprocs = 4;
    nobjs = 16;
    txs_per_client = 20;
    mix =
      { base.Load.mix with Load.dist = Workload.Zipf 0.9; write_ratio = 0.8 };
    seed = 3;
    retries = 8;
  }

let test_rmr_pinned_totals () =
  (* exact totals of fixed cells, recorded with the list-of-holders
     simulators (the contended x4 cells with the direct-style sharded
     protocol); ofree allocates cells while it runs, so the online
     accountant sees addresses that did not exist when it was created *)
  List.iter
    (fun (tm_name, cfg, expected) ->
      let (module T) = Option.get (Ptm_tms.Registry.by_name tm_name) in
      let r =
        Load.run (module T)
          { cfg with Load.rmr_models = Ptm_machine.Rmr.all_models }
      in
      Alcotest.(check (list (pair string int))) tm_name expected r.Load.rmr)
    [
      ("norec.x4", base, [ ("CC/WT", 1392); ("CC/WB", 1024); ("DSM", 6775) ]);
      ("ofree", base, [ ("CC/WT", 1083); ("CC/WB", 993); ("DSM", 3724) ]);
      ( "norec.x4",
        contended_x4,
        [ ("CC/WT", 4212); ("CC/WB", 3262); ("DSM", 14405) ] );
      ( "sgl.x4",
        contended_x4,
        [ ("CC/WT", 5736); ("CC/WB", 4135); ("DSM", 14833) ] );
      ( "ofree.x4",
        contended_x4,
        [ ("CC/WT", 3943); ("CC/WB", 3382); ("DSM", 17460) ] );
    ]

let test_crash_under_load () =
  List.iter
    (fun tm_name ->
      let (module T) = Option.get (Ptm_tms.Registry.by_name tm_name) in
      let cfg =
        {
          base with
          Load.sample = 1.0;
          faults = [ Ptm_machine.Fault.crash ~pid:1 ~at:200 ];
          max_slots = 400_000;
        }
      in
      let r = Load.run (module T) cfg in
      (* the crashed process strands its clients (and, for lock-based TMs,
         possibly everyone spinning on what it holds) — but whatever
         completes must be opaque *)
      Alcotest.(check bool)
        (tm_name ^ ": some transactions lost")
        true
        (r.Load.unstarted > 0 || r.Load.out_of_slots);
      match r.Load.verdict with
      | Some (Opacity_stream.Violation v) ->
          Alcotest.failf "%s: opacity violation under crash: %a" tm_name
            Opacity_stream.pp_violation v
      | Some (Opacity_stream.Opaque | Opacity_stream.Inconclusive _) -> ()
      | None -> Alcotest.failf "%s: monitor not armed" tm_name)
    [ "norec"; "norec.x4" ]

let test_zipf_hot_mix () =
  let (module T) = Option.get (Ptm_tms.Registry.by_name "norec.x4") in
  (* write-heavy mixes pile up overlapping write-only commits whose order
     nothing ever forces, so the checker's frontier can grow without bound
     and [Inconclusive] is its honest answer — a [Violation] is still a
     hard failure *)
  let cfg =
    {
      base with
      Load.sample = 1.0;
      mix =
        {
          Load.dist = Workload.Zipf 0.9;
          hotspot = Some (2, 0.3);
          write_ratio = 0.8;
          ops_min = 1;
          ops_max = 4;
        };
    }
  in
  let r = Load.run (module T) cfg in
  check_accounting cfg r;
  match r.Load.verdict with
  | Some (Opacity_stream.Violation v) ->
      Alcotest.failf "zipf+hot mix: opacity violation: %a"
        Opacity_stream.pp_violation v
  | Some (Opacity_stream.Opaque | Opacity_stream.Inconclusive _) -> ()
  | None -> Alcotest.fail "zipf+hot mix: monitor not armed"

(* The monitor's frontier, pinned on small full-sample cells: verdict and
   checker stats as recorded before frontier deduplication stopped building
   a key per state. An Inconclusive latch seq moves if any deduplication
   decision changes, and so do the peaks. *)
let test_frontier_pinned () =
  let cfg =
    {
      Load.default_config with
      Load.clients = 32;
      nprocs = 4;
      txs_per_client = 40;
      sample = 1.0;
    }
  in
  let inconclusive seq =
    Printf.sprintf
      "inconclusive: frontier exceeded 256 states at seq %d (pathological \
       commit-window overlap)"
      seq
  in
  List.iter
    (fun (name, verdict, (events, snapshots, max_frontier, max_live, max_res))
       ->
      let (module T) = Option.get (Ptm_tms.Registry.by_name name) in
      let r = Load.run (module T) cfg in
      Alcotest.(check string)
        (name ^ ": verdict") verdict
        (Fmt.str "%a" Opacity_stream.pp_verdict (Option.get r.Load.verdict));
      let s = Option.get r.Load.monitor_stats in
      Alcotest.(check (list int))
        (name ^ ": events, snapshots, max frontier/live/resident")
        [ events; snapshots; max_frontier; max_live; max_res ]
        Opacity_stream.
          [ s.events; s.snapshots; s.max_frontier; s.max_live; s.max_resident ])
    [
      ("norec", inconclusive 13522, (3963, 292, 157, 4, 4160));
      ("tl2", inconclusive 1085, (423, 21, 235, 4, 348));
      ("norec.x4", inconclusive 12246, (973, 75, 171, 4, 1600));
      ("ofree", "opaque", (20892, 1135, 56, 4, 1680));
    ]

let test_bad_configs () =
  let (module T) = Option.get (Ptm_tms.Registry.by_name "norec") in
  let expect name cfg =
    match Load.run (module T) cfg with
    | (_ : Load.result) -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  expect "zero clients" { base with Load.clients = 0 };
  expect "more procs than clients" { base with Load.nprocs = 100 };
  expect "bad sample" { base with Load.sample = 1.5 };
  expect "frontier 0" { base with Load.monitor_frontier = 0 };
  expect "retries -1" { base with Load.retries = -1 };
  expect "bad length range"
    { base with Load.mix = { base.Load.mix with Load.ops_min = 0 } }

let () =
  Alcotest.run "load"
    [
      ( "engine",
        [
          Alcotest.test_case "full-sample runs are opaque" `Quick
            test_full_sample_clean;
          Alcotest.test_case "deterministic under a seed" `Quick
            test_deterministic;
          Alcotest.test_case "open loop" `Quick test_open_loop;
          Alcotest.test_case "closed loop with think time" `Quick
            test_closed_loop_think;
          Alcotest.test_case "partial sampling" `Quick test_partial_sample;
          Alcotest.test_case "online RMR accounting" `Quick test_rmr_accounting;
          Alcotest.test_case "RMR accounting does not perturb" `Quick
            test_rmr_does_not_perturb;
          Alcotest.test_case "RMR totals pinned" `Quick test_rmr_pinned_totals;
          Alcotest.test_case "crash under load" `Quick test_crash_under_load;
          Alcotest.test_case "zipf + hotspot mix" `Quick test_zipf_hot_mix;
          Alcotest.test_case "monitor frontier pinned" `Quick
            test_frontier_pinned;
          Alcotest.test_case "config validation" `Quick test_bad_configs;
        ] );
    ]
