(* The benchmark program. One host process, one thread: simulated clients are
   multiplexed by [Load], explorations run on one domain.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   With [--trace 0] the workload's fixed pass is repeated until [S] seconds
   are spent and the end-to-end metrics are printed; with [--trace 1] one
   untraced pass is followed by a traced pass (spans around every call into
   a layer, a wrapped TM counting steps per t-operation, paired runs with
   RMR accounting or the monitor switched off, a replay of the captured
   history) and the per-layer metrics are printed. Host time is a monotonic
   clock read around the benchmark's own calls. The last stdout line is the
   result object; any failed check prints it with [correct = false] and
   exits 1. NOTES.md says why each workload exists and what each metric
   should move. *)

open Ptm_machine
open Ptm_core

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let t_origin = now ()
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int
let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Spans: kept in memory, written out at exit of a traced run          *)
(* ------------------------------------------------------------------ *)

type span = { id : int; name : string; parent : int; t0 : float; t1 : float }

let tracing = ref false
let spans = ref []
let open_spans = ref []
let next_span = ref 0

(* [timed name f] is [f ()] with its host duration; a span is recorded
   while tracing. *)
let timed name f =
  let id = !next_span in
  incr next_span;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  if !tracing then open_spans := id :: !open_spans;
  let t0 = now () in
  let close () =
    let t1 = now () in
    if !tracing then begin
      open_spans := List.tl !open_spans;
      spans := { id; name; parent; t0; t1 } :: !spans
    end;
    t1 -. t0
  in
  match f () with
  | v -> (v, close ())
  | exception e ->
      ignore (close () : float);
      raise e

let write_spans file =
  (try Sys.mkdir (Filename.dirname file) 0o755 with Sys_error _ -> ());
  let oc = open_out file in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\": %d, \"name\": %S, \"parent\": %d, \"start_s\": %.9f, \
         \"end_s\": %.9f}\n"
        (if i = 0 then "  " else ", ")
        s.id s.name s.parent (s.t0 -. t_origin) (s.t1 -. t_origin))
    (List.rev !spans);
  output_string oc "]\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* The TM wrapper: per-operation step counts, service times, history   *)
(* ------------------------------------------------------------------ *)

(* Operation kinds, indexing the probe's counters. *)
let k_read = 0
let k_write = 1
let k_commit = 2

type probe = {
  retries : int;  (** the load config's retry budget *)
  calls : int array;
  op_steps : int array;
  op_aborts : int array;
  first_step : int array;
      (** per pid: own step count at the first operation of the current
          transaction's first attempt, -1 between transactions *)
  attempt : int array;
  mutable service : int list;
      (** own steps from the first operation of the first attempt to the
          final outcome, one per finished transaction *)
  capture : bool;
  mutable history : Opacity_stream.event list;  (** reversed *)
}

let probe ~retries ~nprocs ~capture =
  {
    retries;
    calls = Array.make 3 0;
    op_steps = Array.make 3 0;
    op_aborts = Array.make 3 0;
    first_step = Array.make nprocs (-1);
    attempt = Array.make nprocs 0;
    service = [];
    capture;
    history = [];
  }

(* A transparent [Tm_intf.S] around [T]: it reads only host-side machine
   state ([Machine.steps_of]), so the wrapped run executes exactly the
   same events as the bare one — the traced run asserts it. Steps, not
   host time, because [Load] interleaves processes step by step: an
   operation's host interval contains other processes' steps. The runner
   brackets every call with its own history notes without yielding, so
   the captured history is the one [Load]'s monitor sees. A retry is
   recognised by the retry budget: an abort before the last attempt is
   followed by the same transaction's next attempt on the same process
   (no livelock detector, so [Load] always retries). *)
let wrap (module T : Tm_intf.S) (p : probe) : (module Tm_intf.S) =
  (module struct
    let name = T.name
    let props = T.props

    type t = { inner : T.t; m : Machine.t }

    let create m ~nobjs = { inner = T.create m ~nobjs; m }

    type tx = { itx : T.tx; pid : int; id : int }

    let fresh t ~pid ~id = { itx = T.fresh t.inner ~pid ~id; pid; id }

    let record p ev = if p.capture then p.history <- ev :: p.history

    let call t tx kind op res_of f =
      let pid = tx.pid in
      let s0 = Machine.steps_of t.m pid in
      if p.first_step.(pid) < 0 then p.first_step.(pid) <- s0;
      record p (Opacity_stream.Inv { pid; tx = tx.id; op });
      let r = f () in
      let s1 = Machine.steps_of t.m pid in
      p.calls.(kind) <- p.calls.(kind) + 1;
      p.op_steps.(kind) <- p.op_steps.(kind) + (s1 - s0);
      let finish () =
        p.service <- (s1 - p.first_step.(pid)) :: p.service;
        p.first_step.(pid) <- -1;
        p.attempt.(pid) <- 0
      in
      let res =
        match r with
        | Ok v ->
            if kind = k_commit then finish ();
            res_of v
        | Error `Abort ->
            p.op_aborts.(kind) <- p.op_aborts.(kind) + 1;
            if p.attempt.(pid) < p.retries then
              p.attempt.(pid) <- p.attempt.(pid) + 1
            else finish ();
            History.RAbort
      in
      record p (Opacity_stream.Res { pid; tx = tx.id; op; res });
      r

    let read t tx x =
      call t tx k_read (History.Read x)
        (fun v -> History.RVal v)
        (fun () -> T.read t.inner tx.itx x)

    let write t tx x v =
      call t tx k_write
        (History.Write (x, v))
        (fun () -> History.ROk)
        (fun () -> T.write t.inner tx.itx x v)

    let try_commit t tx =
      call t tx k_commit History.Try_commit
        (fun () -> History.RCommit)
        (fun () -> T.try_commit t.inner tx.itx)
  end)

(* ------------------------------------------------------------------ *)
(* Load workloads                                                      *)
(* ------------------------------------------------------------------ *)

(* The four code shapes: a step-derived TM, a fiber-only TM, the
   obstruction-free TM under its default (Karma) contention manager, and
   the sharded two-phase-commit wrapper. *)
let load_tms = [ "norec"; "tl2"; "ofree"; "norec.x4" ]

let tm_named name =
  match Ptm_tms.Registry.by_name name with
  | Some tm -> tm
  | None -> fail "no TM named %s in the registry" name

let contended_config seed =
  {
    Load.default_config with
    clients = 256;
    nprocs = 4;
    nobjs = 64;
    txs_per_client = 200;
    model = Load.Closed_loop { think = 0 };
    mix =
      {
        dist = Workload.Zipf 0.9;
        hotspot = None;
        write_ratio = 0.8;
        ops_min = 2;
        ops_max = 6;
      };
    seed;
    retries = 8;
    rmr_models = Rmr.all_models;
  }

let monitored_config seed =
  {
    Load.default_config with
    clients = 64;
    nprocs = 3;
    nobjs = 64;
    txs_per_client = 100;
    model = Load.Closed_loop { think = 0 };
    mix =
      {
        dist = Workload.Uniform;
        hotspot = None;
        write_ratio = 0.2;
        ops_min = 2;
        ops_max = 6;
      };
    seed;
    retries = 8;
    sample = 1.0;
  }

let verdict_kind = function
  | None -> "off"
  | Some Opacity_stream.Opaque -> "opaque"
  | Some (Opacity_stream.Violation _) -> "violation"
  | Some (Opacity_stream.Inconclusive _) -> "inconclusive"

(* Everything simulated about a load cell: it must repeat exactly. *)
let exact (r : Load.result) =
  Printf.sprintf
    "%s committed %d aborted %d failed %d unstarted %d steps %d wasted %d idle \
     %d rmr [%s] monitor %s"
    r.tm r.committed r.aborted r.failed r.unstarted r.steps r.wasted r.idle
    (String.concat "; "
       (List.map (fun (m, n) -> Printf.sprintf "%s %d" m n) r.rmr))
    (verdict_kind r.verdict)

let run_cell ?(label = "load.run") tm (cfg : Load.config) =
  let (module T : Tm_intf.S) = tm in
  let r, s = timed (label ^ "." ^ T.name) (fun () -> Load.run tm cfg) in
  if r.out_of_slots then fail "%s: load cell ran out of scheduler slots" r.tm;
  if r.unstarted > 0 then fail "%s: %d transactions never started" r.tm r.unstarted;
  if r.committed + r.failed <> cfg.clients * cfg.txs_per_client then
    fail "%s: committed + failed <> issued" r.tm;
  (match r.verdict with
  | Some (Opacity_stream.Violation v) ->
      fail "%s: opacity violation: %s" r.tm
        (Format.asprintf "%a" Opacity_stream.pp_violation v)
  | _ -> ());
  (r, s)

(* ------------------------------------------------------------------ *)
(* Explorer workload                                                   *)
(* ------------------------------------------------------------------ *)

let explore_tms : Tm_intf.tm_step list =
  [ (module Ptm_tms.Norec.Stepwise); (module Ptm_tms.Undolog.Stepwise);
    (module Ptm_tms.Ofree.Stepwise) ]

let explore_procs = 3
let explore_depth = 34
let warmup_depth = 22

(* Distinct written values drawn from the seed: the exploration's shape
   does not depend on them, the final check does. *)
let explore_values seed =
  let rng = Random.State.make [| 0xe7; seed |] in
  Array.init explore_procs (fun pid ->
      (1 + Random.State.int rng 1_000_000) * 8 + pid)

(* Each process runs one write-own/read-neighbour transaction with one
   retry on the Steps engine, and stops at an aborted write. A committed
   transaction's read result is poked into a per-process cell (no event)
   for the final check. Programs capture no host state, so the explorer may
   restart machines in place; [outs] only remembers the cells' addresses,
   which are the same in every machine [mk] builds. *)
let explore_cell (module T : Tm_intf.S_step) values =
  let module Sm = Proc.Step in
  let module R = Runner.Make_step (T) in
  let outs = Array.make explore_procs (-1) in
  let mk () =
    let m =
      Machine.create ~trace:Trace.Off ~engine:Machine.Steps
        ~nprocs:explore_procs ()
    in
    let ctx = R.init m ~nobjs:2 in
    let mem = Machine.memory m in
    (* every cell is allocated before the first spawn, which snapshots
       the memory that restarts restore *)
    for pid = 0 to explore_procs - 1 do
      outs.(pid) <-
        Machine.alloc m ~name:(Printf.sprintf "bench.out.p%d" pid) (Value.Int (-1))
    done;
    for pid = 0 to explore_procs - 1 do
      let out = outs.(pid) in
      Machine.spawn_step m pid
        (Sm.bind
           (R.atomically ctx ~pid ~retries:1 (fun tx ->
                Sm.bind (R.write ctx tx (pid mod 2) values.(pid)) (function
                  | Error `Abort -> Sm.return (Error `Abort)
                  | Ok () -> R.read ctx tx ((pid + 1) mod 2))))
           (fun r ->
             (match r with
             | Ok v -> Memory.poke mem out (Value.Int v)
             | Error `Abort -> ());
             Sm.return ()))
    done;
    m
  in
  (* a committed read sees the initial value or a value some process wrote
     to the neighbour object *)
  let final m =
    let mem = Machine.memory m in
    let ok = ref true in
    for pid = 0 to explore_procs - 1 do
      match Memory.peek mem outs.(pid) with
      | Value.Int (-1) -> ()
      | Value.Int v ->
          let obj = (pid + 1) mod 2 in
          let written = ref (v = Tm_intf.init_value) in
          Array.iteri
            (fun q w -> if q mod 2 = obj && w = v then written := true)
            values;
          if not !written then ok := false
      | _ -> ok := false
    done;
    !ok
  in
  (T.name, mk, final)

let run_exploration ?(label = "explore.run") ?(depth = explore_depth)
    (name, mk, final) =
  let s, secs =
    timed (label ^ "." ^ name) (fun () ->
        Explore.run ~mk ~final ~max_steps:depth ~mode:Explore.Dpor ())
  in
  if s.violations > 0 then
    fail "%s: explorer found %d violations (witness %s)" name s.violations
      (match s.first_violation with
      | None -> "none"
      | Some w -> String.concat "," (List.map string_of_int w));
  if s.exhausted then fail "%s: exploration hit its path budget" name;
  (s, secs)

let exact_explore name (s : Explore.stats) =
  Printf.sprintf "%s paths %d cut %d pruned %d replays %d steps %d saved %d"
    name s.paths s.cut s.pruned s.replays s.steps s.replay_steps_saved

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [ ("wall_s", "s"); ("setup_s", "s"); ("sim_steps", "steps") ]

let per_tm prefix suffix unit tms =
  List.map (fun tm -> (prefix ^ tm ^ suffix, unit)) tms

let explore_names =
  List.map (fun (module T : Tm_intf.S_step) -> T.name) explore_tms

(* Every workload reports every metric; a layer a workload does not
   exercise reads 0. *)
let per_layer =
  per_tm "tm." ".tx_per_s" "1/s" load_tms
  @ per_tm "tm." ".steps_per_commit" "steps" load_tms
  @ per_tm "tm." ".abort_rate" "frac" load_tms
  @ [ ("tm.read.steps_per_call", "steps"); ("tm.write.steps_per_call", "steps");
      ("tm.commit.steps_per_call", "steps"); ("tm.read.abort_frac", "frac");
      ("tm.write.abort_frac", "frac"); ("tm.commit.abort_frac", "frac");
      ("runner.attempts_per_tx", "count"); ("runner.failed", "count") ]
  @ per_tm "load.run_s." "" "s" load_tms
  @ [ ("load.tx_per_s", "1/s"); ("load.wasted_frac", "frac");
      ("load.idle_ticks", "count"); ("load.abort_rate", "frac");
      ("load.steps_per_commit", "steps"); ("load.failed_frac", "frac");
      ("load.service_steps_p50", "steps"); ("load.service_steps_p999", "steps");
      ("machine.steps", "count"); ("machine.ns_per_step", "ns");
      ("rmr.cc_wt_per_commit", "count"); ("rmr.cc_wb_per_commit", "count");
      ("rmr.dsm_per_commit", "count"); ("rmr.self_s", "s");
      ("rmr.self_frac", "frac") ]
  @ per_tm "rmr.self_s." "" "s" load_tms
  @ [ ("opacity.replay_s", "s"); ("opacity.replay_frac", "frac");
      ("opacity.ns_per_event", "ns"); ("opacity.events_before_verdict", "count");
      ("opacity.max_frontier", "count"); ("opacity.monitor_delta_s", "s");
      ("opacity.perturbed_steps", "steps"); ("opacity.conclusive", "frac");
      ("explore.leaves", "count"); ("explore.pruned", "count");
      ("explore.replays", "count"); ("explore.steps", "count");
      ("explore.replay_steps_saved", "count"); ("explore.fused_steps", "count");
      ("explore.steps_per_leaf", "steps"); ("explore.replays_per_leaf", "count");
      ("explore.ns_per_step", "ns"); ("explore.leaves_per_s", "1/s");
      ("explore.s", "s") ]
  @ per_tm "explore." ".s" "s" explore_names
  @ [ ("gc.minor_words_per_unit", "words"); ("gc.major_collections", "count");
      ("gc.heap_peak_mb", "MB");
      ("trace.overhead_s", "s") ]

let values : (string, float) Hashtbl.t = Hashtbl.create 97
let set name v = Hashtbl.replace values name v

let print_result ~correct ~attempted ~failed names =
  let metric (name, unit) =
    let v = Option.value (Hashtbl.find_opt values name) ~default:0.0 in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric names))

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = {
  setup : unit -> unit;
      (** resolve the cells and warm every one of them up *)
  pass : unit -> string list * float * int * int;
      (** one pass over the fixed work: exact per-cell summaries, host
          seconds, simulated steps, checked units *)
  traced : unit -> string list * int;
      (** an untraced pass, then the traced one: sets the per-layer
          metrics, returns the untraced pass's summaries and units *)
}

let gc_minor () = (Gc.quick_stat ()).minor_words
let gc_major () = (Gc.quick_stat ()).major_collections

(* Read after set-up and one untraced pass, before the wrapper's buffers
   exist. *)
let set_heap_peak () =
  set "gc.heap_peak_mb"
    (fi (Gc.quick_stat ()).top_heap_words *. fi (Sys.word_size / 8) /. 1e6)

(* One load cell of a traced run: the untraced run [r] in [s] seconds, the
   wrapped run's time, the wrapper's counts, and the paired run with the
   workload's observed layer (RMR accounting or the monitor) off. *)
type load_cell = {
  name : string;
  r : Load.result;
  s : float;
  traced_s : float;
  p : probe;
  off : Load.result;
  off_s : float;
}

(* Transactions per client in a set-up warm-up: enough that one set-up
   takes about 0.1 s, long against a scheduler preemption. *)
let warmup_txs = 4

let load_workload ~monitored seed =
  let cfg = if monitored then monitored_config seed else contended_config seed in
  let tms = ref [] in
  let setup () =
    tms := List.map tm_named load_tms;
    List.iter
      (fun tm ->
        ignore
          (run_cell ~label:"setup.warmup" tm
             { cfg with txs_per_client = warmup_txs }
            : Load.result * float))
      !tms
  in
  let plain () = List.map (fun tm -> run_cell tm cfg) !tms in
  let issued = cfg.clients * cfg.txs_per_client * List.length load_tms in
  let pass () =
    let cells = plain () in
    ( List.map (fun (r, _) -> exact r) cells,
      sum snd cells,
      int_of_float (sum (fun ((r : Load.result), _) -> fi r.steps) cells),
      issued )
  in
  let traced () =
    (* untraced reference pass *)
    let minor0 = gc_minor () and major0 = gc_major () in
    let base = plain () in
    let minor = gc_minor () -. minor0 and major = gc_major () - major0 in
    set_heap_peak ();
    let base_s = sum snd base in
    tracing := true;
    let cells =
      List.map2
        (fun tm (r, s) ->
          let (module T : Tm_intf.S) = tm in
          let p = probe ~retries:cfg.retries ~nprocs:cfg.nprocs ~capture:monitored in
          let wrapped, traced_s = run_cell (wrap tm p) cfg in
          if exact wrapped <> exact r then
            fail "%s: the wrapped run differs from the bare run:\n  %s\n  %s"
              T.name (exact wrapped) (exact r);
          if List.length p.service <> r.committed + r.failed then
            fail "%s: the wrapper saw %d transactions, load %d" T.name
              (List.length p.service) (r.committed + r.failed);
          (* the paired run with the layer under study switched off *)
          let off, off_s =
            if monitored then
              run_cell ~label:"load.run.sample0" tm { cfg with sample = 0.0 }
            else run_cell ~label:"load.run.rmr_off" tm { cfg with rmr_models = [] }
          in
          if (not monitored) && exact off <> exact { r with rmr = [] } then
            fail "%s: RMR accounting perturbed the run:\n  %s\n  %s" T.name
              (exact off) (exact r);
          { name = T.name; r; s; traced_s; p; off; off_s })
        !tms base
    in
    let replays =
      if not monitored then []
      else
        List.map
          (fun c ->
            let chk = Opacity_stream.create ~max_frontier:cfg.monitor_frontier () in
            let events = List.rev c.p.history in
            let (), s =
              timed ("opacity.replay." ^ c.name) (fun () ->
                  List.iter (Opacity_stream.on_event chk) events)
            in
            let v = Opacity_stream.verdict chk in
            if verdict_kind (Some v) <> verdict_kind c.r.verdict then
              fail "%s: replayed verdict %s, load's %s" c.name
                (verdict_kind (Some v)) (verdict_kind c.r.verdict);
            (s, Opacity_stream.stats chk, v))
          cells
    in
    tracing := false;
    let tot f = sum (fun c -> fi (f c.r)) cells in
    let committed = tot (fun r -> r.committed) in
    let aborted = tot (fun r -> r.aborted) in
    let failed = tot (fun r -> r.failed) in
    let steps = tot (fun r -> r.steps) in
    List.iter
      (fun c ->
        set ("tm." ^ c.name ^ ".tx_per_s") (ratio (fi c.r.committed) c.s);
        set ("tm." ^ c.name ^ ".steps_per_commit")
          (ratio (fi c.r.steps) (fi c.r.committed));
        set ("tm." ^ c.name ^ ".abort_rate") (Load.abort_rate c.r);
        set ("load.run_s." ^ c.name) c.s)
      cells;
    List.iter
      (fun (k, op) ->
        let count f = sum (fun c -> fi (f c.p).(k)) cells in
        let calls = count (fun p -> p.calls) in
        set ("tm." ^ op ^ ".steps_per_call") (ratio (count (fun p -> p.op_steps)) calls);
        set ("tm." ^ op ^ ".abort_frac") (ratio (count (fun p -> p.op_aborts)) calls))
      [ (k_read, "read"); (k_write, "write"); (k_commit, "commit") ];
    set "runner.attempts_per_tx" (ratio (committed +. aborted) (committed +. failed));
    set "runner.failed" failed;
    set "load.tx_per_s" (ratio committed base_s);
    set "load.wasted_frac" (ratio (tot (fun r -> r.wasted)) steps);
    set "load.idle_ticks" (tot (fun r -> r.idle));
    set "load.abort_rate" (ratio aborted (committed +. aborted));
    set "load.steps_per_commit" (ratio steps committed);
    set "load.failed_frac" (ratio failed (fi issued));
    let service = Array.of_list (List.concat_map (fun c -> c.p.service) cells) in
    Array.sort compare service;
    let quantile q =
      let n = Array.length service in
      fi service.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. fi n)) - 1)))
    in
    set "load.service_steps_p50" (quantile 0.5);
    set "load.service_steps_p999" (quantile 0.999);
    (* the machine's own cost: the paired runs carry neither RMR
       accounting nor the monitor *)
    let off_s = sum (fun c -> c.off_s) cells in
    set "machine.steps" steps;
    set "machine.ns_per_step" (ratio off_s (sum (fun c -> fi c.off.steps) cells) *. 1e9);
    if not monitored then begin
      List.iter
        (fun (model, metric) ->
          set metric
            (ratio (tot (fun r -> List.assoc (Rmr.model_name model) r.rmr)) committed))
        [ (Rmr.Cc_write_through, "rmr.cc_wt_per_commit");
          (Rmr.Cc_write_back, "rmr.cc_wb_per_commit"); (Rmr.Dsm, "rmr.dsm_per_commit") ];
      List.iter (fun c -> set ("rmr.self_s." ^ c.name) (c.s -. c.off_s)) cells;
      set "rmr.self_s" (base_s -. off_s);
      set "rmr.self_frac" (ratio (base_s -. off_s) base_s)
    end
    else begin
      let replay_s = sum (fun (s, _, _) -> s) replays in
      let events = sum (fun (_, st, _) -> fi st.Opacity_stream.events) replays in
      set "opacity.replay_s" replay_s;
      set "opacity.replay_frac" (ratio replay_s base_s);
      set "opacity.ns_per_event" (ratio replay_s events *. 1e9);
      set "opacity.events_before_verdict" events;
      set "opacity.max_frontier"
        (List.fold_left
           (fun acc (_, st, _) -> max acc (fi st.Opacity_stream.max_frontier))
           0.0 replays);
      set "opacity.monitor_delta_s" (base_s -. off_s);
      set "opacity.perturbed_steps"
        (sum (fun c -> fi (abs (c.r.steps - c.off.steps))) cells);
      set "opacity.conclusive"
        (ratio
           (sum (fun (_, _, v) -> if v = Opacity_stream.Opaque then 1.0 else 0.0) replays)
           (fi (List.length replays)))
    end;
    set "gc.minor_words_per_unit" (ratio minor committed);
    set "gc.major_collections" (fi major);
    set "trace.overhead_s" (sum (fun c -> c.traced_s) cells -. base_s);
    (List.map (fun (r, _) -> exact r) base, issued)
  in
  { setup; pass; traced }

let explore_workload seed =
  let cells = ref [] in
  let setup () =
    let values = explore_values seed in
    cells := List.map (fun tm -> explore_cell tm values) explore_tms;
    List.iter
      (fun cell ->
        ignore
          (run_exploration ~label:"setup.warmup" ~depth:warmup_depth cell
            : Explore.stats * float))
      !cells
  in
  let explorations () =
    List.map (fun ((name, _, _) as cell) -> (name, run_exploration cell)) !cells
  in
  let pass () =
    let runs = explorations () in
    ( List.map (fun (name, (s, _)) -> exact_explore name s) runs,
      sum (fun (_, (_, secs)) -> secs) runs,
      int_of_float (sum (fun (_, ((s : Explore.stats), _)) -> fi s.steps) runs),
      int_of_float (sum (fun (_, ((s : Explore.stats), _)) -> fi (s.paths + s.cut)) runs) )
  in
  let traced () =
    let minor0 = gc_minor () and major0 = gc_major () in
    let base = explorations () in
    let minor = gc_minor () -. minor0 and major = gc_major () - major0 in
    set_heap_peak ();
    let base_s = sum (fun (_, (_, secs)) -> secs) base in
    tracing := true;
    let runs = explorations () in
    tracing := false;
    List.iter2
      (fun (name, (s0, _)) (_, (s, _)) ->
        if exact_explore name s <> exact_explore name s0 then
          fail "%s: traced exploration differs from the untraced one" name)
      base runs;
    let tot f = sum (fun (_, ((s : Explore.stats), _)) -> fi (f s)) base in
    let leaves = tot (fun s -> s.paths + s.cut) in
    let steps = tot (fun s -> s.steps) in
    let replays = tot (fun s -> s.replays) in
    set "explore.leaves" leaves;
    set "explore.pruned" (tot (fun s -> s.pruned));
    set "explore.replays" replays;
    set "explore.steps" steps;
    set "explore.replay_steps_saved" (tot (fun s -> s.replay_steps_saved));
    set "explore.fused_steps" (tot (fun s -> s.fused_steps));
    set "explore.steps_per_leaf" (ratio steps leaves);
    set "explore.replays_per_leaf" (ratio replays leaves);
    set "explore.ns_per_step" (ratio base_s steps *. 1e9);
    set "explore.leaves_per_s" (ratio leaves base_s);
    set "explore.s" base_s;
    List.iter (fun (name, (_, secs)) -> set ("explore." ^ name ^ ".s") secs) base;
    set "gc.minor_words_per_unit" (ratio minor steps);
    set "gc.major_collections" (fi major);
    set "trace.overhead_s" (sum (fun (_, (_, secs)) -> secs) runs -. base_s);
    (List.map (fun (name, (s, _)) -> exact_explore name s) base, int_of_float leaves)
  in
  { setup; pass; traced }

let workloads =
  [ ("load-contended", load_workload ~monitored:false);
    ("load-monitored", load_workload ~monitored:true);
    ("explore-dpor", explore_workload) ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w !seed
    | None ->
        prerr_endline
          ("unknown workload; one of: " ^ String.concat ", " (List.map fst workloads));
        exit 2
  in
  let attempted = ref 0 in
  try
    if !trace = 0 then begin
      let t0 = now () in
      let reference = ref None and times = ref [] and setups = ref [] in
      (* Every pass is preceded by a fresh set-up, so set-up is timed as
         often as a pass and under the same host conditions; both report
         the median. Stop before a pass would overrun the budget. *)
      while
        match !times with
        | [] -> true
        | last :: _ -> now () -. t0 +. last <= fi !seconds
      do
        let (), setup_s = timed "setup" w.setup in
        setups := setup_s :: !setups;
        let cells, secs, steps, units = w.pass () in
        (match !reference with
        | None ->
            List.iter print_endline cells;
            reference := Some cells;
            set "sim_steps" (fi steps)
        | Some ref_cells ->
            if cells <> ref_cells then fail "a repeated pass differs from the first");
        attempted := !attempted + units;
        times := secs :: !times
      done;
      Printf.printf "passes: %d, pass seconds: %s\n" (List.length !times)
        (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !times));
      set "wall_s" (median !times);
      set "setup_s" (median !setups);
      print_result ~correct:true ~attempted:!attempted ~failed:0 end_to_end
    end
    else begin
      tracing := true;
      ignore (timed "setup" w.setup : unit * float);
      tracing := false;
      let cells, units = w.traced () in
      List.iter print_endline cells;
      attempted := units;
      write_spans (Printf.sprintf ".perfbench/spans-%s-seed%d.json" !workload !seed);
      print_result ~correct:true ~attempted:!attempted ~failed:0 per_layer
    end
  with
  | Check_failed msg ->
      prerr_endline ("check failed: " ^ msg);
      print_result ~correct:false ~attempted:(max 1 !attempted) ~failed:1 [];
      exit 1
  | Machine.Invariant { pid; slot; seq; what } ->
      Printf.eprintf "machine invariant violated: %s (pid %d, slot %d, seq %d)\n" what pid
        slot seq;
      print_result ~correct:false ~attempted:(max 1 !attempted) ~failed:1 [];
      exit 1
