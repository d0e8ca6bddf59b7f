(* Engine-differential tests: the Steps backend must be bit-identical to
   the Fibers backend — on fixed fixtures, on random programs with random
   schedules and fault plans (QCheck), and on whole explorations — and the
   step-form TMs must be event-identical to their derived direct-style
   twins. Also: the OSTM deep-helping regression (chains far beyond the old
   recursion guard), the typed Bounds_error raised when a lower-bound
   construction diverges, checkpoint/resume crash-safety (including a real
   [kill -9] mid-exploration), and work-stealing determinism across domain
   counts. *)

open Ptm_machine
open Ptm_core
open Ptm_mutex

module Sm = Proc.Step

let ( let* ) = Sm.bind
let of_q t = QCheck_alcotest.to_alcotest t

(* ------------------------------------------------------------------ *)
(* Machine fingerprints                                                *)
(* ------------------------------------------------------------------ *)

let status_tag m pid =
  match Machine.status m pid with
  | Machine.Idle -> "idle"
  | Machine.Runnable -> "runnable"
  | Machine.Terminated -> "terminated"
  | Machine.Halted -> "halted"
  | Machine.Crashed e -> "crashed: " ^ Printexc.to_string e

(* Everything an execution observably produced: the full trace (memory
   events and notes), per-process step and slot counters, final statuses.
   Two machines with equal fingerprints ran bit-identical executions. *)
let fingerprint ~nprocs m =
  ( Trace.entries (Machine.trace m),
    List.init nprocs (Machine.steps_of m),
    List.init nprocs (Machine.scheds_of m),
    List.init nprocs (status_tag m) )

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

(* The canonical 2-process TM workload (as in test_explore): each process
   writes one object and reads the other, transactionally, under an
   optional fault plan. *)
let mk_step_tm ?(faults = []) (module T : Tm_intf.S_step) ~engine ~trace () =
  let m = Machine.create ~trace ~engine ~nprocs:2 () in
  let module R = Runner.Make_step (T) in
  let ctx = R.init m ~nobjs:2 in
  Machine.set_faults m faults;
  for pid = 0 to 1 do
    Machine.spawn_step m pid
      (Sm.bind
         (R.atomically ctx ~pid ~retries:1 (fun tx ->
              Sm.bind (R.write ctx tx (pid mod 2) (pid + 1)) (function
                | Error `Abort -> Sm.return (Error `Abort)
                | Ok () -> R.read ctx tx ((pid + 1) mod 2))))
         (fun _ -> Sm.return ()))
  done;
  m

(* The same workload through the derived direct-style module, on fibers. *)
let mk_direct_tm ?(faults = []) (module T : Tm_intf.S) ~trace () =
  let m = Machine.create ~trace ~nprocs:2 () in
  let module R = Runner.Make (T) in
  let ctx = R.init m ~nobjs:2 in
  Machine.set_faults m faults;
  for pid = 0 to 1 do
    Machine.spawn m pid (fun () ->
        ignore
          (R.atomically ctx ~pid ~retries:1 (fun tx ->
               match R.write ctx tx (pid mod 2) (pid + 1) with
               | Error `Abort -> Error `Abort
               | Ok () -> R.read ctx tx ((pid + 1) mod 2))))
  done;
  m

let bounded_schedules ?max_steps () =
  ("round-robin", fun m -> Sched.round_robin ?max_steps m)
  :: List.map
       (fun seed ->
         ( Printf.sprintf "random seed %d" seed,
           fun m -> Sched.random ~seed ?max_steps m ))
       [ 1; 7; 42 ]

let schedules = bounded_schedules ()

(* ------------------------------------------------------------------ *)
(* Engine differentials                                                *)
(* ------------------------------------------------------------------ *)

let test_fixture_differential () =
  List.iter
    (fun ((module T : Tm_intf.S_step) as tm) ->
      List.iter
        (fun (sname, sched) ->
          let run engine =
            let m = mk_step_tm tm ~engine ~trace:Trace.Full () in
            sched m;
            Machine.check_crashes m;
            fingerprint ~nprocs:2 m
          in
          Alcotest.(check bool)
            (T.name ^ " under " ^ sname ^ ": backends bit-identical")
            true
            (run Machine.Fibers = run Machine.Steps))
        schedules)
    Ptm_tms.Registry.stepwise

(* Fault plans for the step/direct runner differential: injected aborts
   of a write and of a commit (the runner's injected-abort path) and a
   crash, which can leave a lock-based TM's survivor spinning — so every
   run is bounded, and a budget trip is part of the fingerprint. *)
let fault_plans =
  [
    ("no faults", []);
    ("abort p0 op0", [ Fault.abort ~pid:0 ~op:0 ]);
    ("abort p1 op2", [ Fault.abort ~pid:1 ~op:2 ]);
    ("crash p0@3", [ Fault.crash ~pid:0 ~at:3 ]);
  ]

let test_step_vs_direct () =
  List.iter
    (fun ((module T : Tm_intf.S_step) as tm) ->
      match Ptm_tms.Registry.by_name T.name with
      | None -> Alcotest.failf "no direct-style %s in the registry" T.name
      | Some direct ->
          List.iter
            (fun (fname, faults) ->
              List.iter
                (fun (sname, sched) ->
                  let fp mk =
                    let m = mk () in
                    let tripped =
                      try
                        sched m;
                        false
                      with Sched.Out_of_steps -> true
                    in
                    Machine.check_crashes m;
                    (tripped, fingerprint ~nprocs:2 m)
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s under %s, %s: step form == direct form"
                       T.name sname fname)
                    true
                    (fp
                       (mk_step_tm ~faults tm ~engine:Machine.Fibers
                          ~trace:Trace.Full)
                    = fp (mk_direct_tm ~faults direct ~trace:Trace.Full)))
                (bounded_schedules ~max_steps:2_000 ()))
            fault_plans)
    Ptm_tms.Registry.stepwise

let test_explore_differential () =
  List.iter
    (fun ((module T : Tm_intf.S_step) as tm) ->
      List.iter
        (fun (mname, mode) ->
          let stats engine =
            Explore.run
              ~mk:(mk_step_tm tm ~engine ~trace:Trace.Off)
              ~max_steps:32 ~mode ()
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: explorer stats equal across engines"
               T.name mname)
            true
            (stats Machine.Fibers = stats Machine.Steps))
        [ ("naive", Explore.Naive); ("dpor", Explore.Dpor) ])
    Ptm_tms.Registry.stepwise

(* ------------------------------------------------------------------ *)
(* Random-program differential (QCheck)                                *)
(* ------------------------------------------------------------------ *)

type op = R of int | W of int * int | C of int * int * int | F of int * int | P

let pp_op = function
  | R a -> Printf.sprintf "r%d" a
  | W (a, v) -> Printf.sprintf "w%d=%d" a v
  | C (a, e, d) -> Printf.sprintf "cas%d:%d>%d" a e d
  | F (a, d) -> Printf.sprintf "faa%d+%d" a d
  | P -> "p"

let rec steps_of_ops addrs = function
  | [] -> Sm.return ()
  | op :: rest ->
      Sm.bind
        (match op with
        | R a -> Sm.bind (Sm.read addrs.(a)) (fun _ -> Sm.return ())
        | W (a, v) -> Sm.write addrs.(a) (Value.Int v)
        | C (a, e, d) ->
            Sm.bind
              (Sm.cas addrs.(a) ~expected:(Value.Int e)
                 ~desired:(Value.Int d))
              (fun _ -> Sm.return ())
        | F (a, d) -> Sm.bind (Sm.faa addrs.(a) d) (fun _ -> Sm.return ())
        | P -> Sm.pause)
        (fun () -> steps_of_ops addrs rest)

let mk_random_case ~engine (ops0, ops1, faults) =
  let m = Machine.create ~trace:Trace.Full ~engine ~nprocs:2 () in
  let addrs =
    Array.init 3 (fun i ->
        Machine.alloc m ~name:(Printf.sprintf "x%d" i) (Value.Int 0))
  in
  Machine.set_faults m faults;
  Machine.spawn_step m 0 (steps_of_ops addrs ops0);
  Machine.spawn_step m 1 (steps_of_ops addrs ops1);
  m

let qcheck_engine_differential =
  let gen =
    QCheck2.Gen.(
      let addr = int_bound 2 in
      let op =
        frequency
          [
            (3, map (fun a -> R a) addr);
            (3, map2 (fun a v -> W (a, v)) addr (int_bound 9));
            (2, map3 (fun a e d -> C (a, e, d)) addr (int_bound 3) (int_bound 9));
            (1, map2 (fun a d -> F (a, d)) addr (int_range 1 3));
            (1, return P);
          ]
      in
      let prog = list_size (int_bound 8) op in
      let faults =
        oneof
          [
            return [];
            map (fun at -> [ Fault.crash ~pid:0 ~at ]) (int_bound 6);
            map2
              (fun at steps -> [ Fault.stall ~pid:1 ~at ~steps ])
              (int_bound 6) (int_range 1 4);
          ]
      in
      pair (pair prog prog) (pair faults (int_bound 9999)))
  in
  let print ((ops0, ops1), (faults, seed)) =
    Printf.sprintf "p0=[%s] p1=[%s] faults=%d seed=%d"
      (String.concat ";" (List.map pp_op ops0))
      (String.concat ";" (List.map pp_op ops1))
      (List.length faults) seed
  in
  QCheck2.Test.make ~count:200 ~print
    ~name:"random programs + faults: Steps == Fibers" gen
    (fun ((ops0, ops1), (faults, seed)) ->
      let run engine =
        let m = mk_random_case ~engine (ops0, ops1, faults) in
        Sched.random ~seed m;
        fingerprint ~nprocs:2 m
      in
      run Machine.Fibers = run Machine.Steps)

(* ------------------------------------------------------------------ *)
(* Pinned explorer stats                                               *)
(* ------------------------------------------------------------------ *)

(* Full stats of the explorer's default path on two structurally different
   TMs — undolog (in-place with validation) and ostm (helping) — on the
   Steps engine with the trace off. The literals were recorded from the
   explorer that still had the fuse, batch and incremental-DPOR switches,
   at their defaults, and every switch setting agreed with them. They pin
   the forced-run loops: a change to which positions run forced moves
   [fused_steps] and the [steps]/[replay_steps_saved] split, and a change
   to the node bookkeeping moves [pruned]. Naive mode trips the leaf
   budget here; single-domain budget trips are deterministic. *)
let pinned_stats =
  let s ~paths ~cut ~pruned ~exhausted ~replays ~steps ~saved ~fused =
    {
      Explore.paths;
      cut;
      pruned;
      violations = 0;
      first_violation = None;
      exhausted;
      replays;
      steps;
      replay_steps_saved = saved;
      fault_branches = 0;
      fused_steps = fused;
    }
  in
  [
    ( ("undolog", Explore.Naive),
      s ~paths:489 ~cut:999_511 ~pruned:0 ~exhausted:true ~replays:1_000_009
        ~steps:4_317_728 ~saved:19_681_748 ~fused:103_078 );
    ( ("undolog", Explore.Dpor),
      s ~paths:7 ~cut:142 ~pruned:125 ~exhausted:false ~replays:155
        ~steps:1579 ~saved:2120 ~fused:336 );
    ( ("ostm", Explore.Naive),
      s ~paths:0 ~cut:1_000_000 ~pruned:0 ~exhausted:true ~replays:1_000_014
        ~steps:4_346_448 ~saved:19_653_716 ~fused:168_859 );
    ( ("ostm", Explore.Dpor),
      s ~paths:0 ~cut:38 ~pruned:34 ~exhausted:false ~replays:40 ~steps:412
        ~saved:556 ~fused:133 );
  ]

let test_pinned_stats () =
  List.iter
    (fun ((tname, mode), expected) ->
      let tm = Option.get (Ptm_tms.Registry.stepwise_by_name tname) in
      let s =
        Explore.run
          ~mk:(mk_step_tm tm ~engine:Machine.Steps ~trace:Trace.Off)
          ~max_steps:24 ~mode ()
      in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s stats" tname
           (match mode with Explore.Naive -> "naive" | Explore.Dpor -> "dpor"))
        (Format.asprintf "%a" Explore.pp_stats expected)
        (Format.asprintf "%a" Explore.pp_stats s);
      Alcotest.(check bool) "every field" true (s = expected))
    pinned_stats

(* [Memory.apply_fast]'s specialized per-primitive branches are a clone of
   [Primitive.apply] (see the keep-in-sync comments in both files); this
   pins the two paths to the same responses and cell states, LL/SC links
   included. *)
let qcheck_apply_fast_pin =
  let open QCheck2 in
  let gen_prim_int =
    Gen.(
      oneof
        [
          return Primitive.Read;
          return Primitive.Ll;
          map (fun v -> Primitive.Write (Value.Int v)) (int_bound 5);
          map (fun v -> Primitive.Fas (Value.Int v)) (int_bound 5);
          map2
            (fun e d ->
              Primitive.Cas { expected = Value.Int e; desired = Value.Int d })
            (int_bound 3) (int_bound 5);
          map (fun k -> Primitive.Faa k) (int_range (-2) 3);
          map (fun v -> Primitive.Sc (Value.Int v)) (int_bound 5);
        ])
  in
  let gen_prim_bool =
    Gen.(
      oneof
        [
          return Primitive.Read;
          return Primitive.Ll;
          map (fun b -> Primitive.Write (Value.Bool b)) bool;
          return Primitive.Tas;
          map2
            (fun e d ->
              Primitive.Cas { expected = Value.Bool e; desired = Value.Bool d })
            bool bool;
          map (fun b -> Primitive.Sc (Value.Bool b)) bool;
        ])
  in
  let gen =
    Gen.(
      list_size (1 -- 40)
        (bind (pair (int_bound 1) (int_bound 1)) (fun (pid, cell) ->
             map
               (fun p -> (pid, cell, p))
               (if cell = 0 then gen_prim_int else gen_prim_bool))))
  in
  let print ops =
    String.concat "; "
      (List.map
         (fun (pid, cell, p) ->
           Format.asprintf "p%d c%d %a" pid cell Primitive.pp p)
         ops)
  in
  Test.make ~count:500 ~print ~name:"Memory.apply_fast == Memory.apply" gen
    (fun ops ->
      let mk_mem () =
        let mem = Memory.create () in
        let i = Memory.alloc mem ~name:"i" (Value.Int 0) in
        let b = Memory.alloc mem ~name:"b" (Value.Bool false) in
        (mem, [| i; b |])
      in
      let ma, aa = mk_mem () in
      let mb, ab = mk_mem () in
      List.for_all
        (fun (pid, cell, prim) ->
          let ra = Memory.apply_fast ma ~pid aa.(cell) prim in
          let rb, _changed = Memory.apply mb ~pid ab.(cell) prim in
          Value.equal ra rb
          && Value.equal (Memory.peek ma aa.(0)) (Memory.peek mb ab.(0))
          && Value.equal (Memory.peek ma aa.(1)) (Memory.peek mb ab.(1)))
        ops)

(* ------------------------------------------------------------------ *)
(* OSTM deep-helping regression                                        *)
(* ------------------------------------------------------------------ *)

(* Build a helping chain of 69 in-flight commits — far past the old
   64-frame recursion guard, which turned exactly this execution into a
   crash of the helping reader — and let one read drive it to completion.
   Committer [i] owns object [i] and pends object [i+1]; the reader's read
   of object 0 must iteratively help the whole chain in constant stack. *)
let test_ostm_deep_helping () =
  let module O = Ptm_tms.Ostm.Stepwise in
  let n = 70 in
  let m = Machine.create ~engine:Machine.Steps ~nprocs:n () in
  let t = O.create m ~nobjs:n in
  let mem = Machine.memory m in
  let header i =
    let name = Printf.sprintf "ostm.h[%d]" i in
    let rec find a =
      if a >= Memory.size mem then Alcotest.failf "no cell named %s" name
      else if String.equal (Memory.name mem a) name then a
      else find (a + 1)
    in
    find 0
  in
  let owned i =
    match Memory.peek mem (header i) with Value.Int _ -> true | _ -> false
  in
  for i = 0 to n - 2 do
    Machine.spawn_step m i
      (Sm.suspend (fun () ->
           let tx = O.fresh t ~pid:i ~id:i in
           let* w1 = O.write t tx i 100 in
           match w1 with
           | Error `Abort -> Sm.return ()
           | Ok () -> (
               let* w2 = O.write t tx (i + 1) 100 in
               match w2 with
               | Error `Abort -> Sm.return ()
               | Ok () ->
                   let* _ = O.try_commit t tx in
                   Sm.return ())))
  done;
  (* Ascending order: when committer [i] runs, headers [i] and [i+1] are
     still clean, so it stops right after its acquiring CAS of header [i]
     — before ever touching the rival descriptor on header [i+1]. *)
  for i = 0 to n - 2 do
    let guard = ref 0 in
    while not (owned i) do
      incr guard;
      if !guard > 10_000 then
        Alcotest.failf "committer %d never acquired object %d" i i;
      match Machine.step m i with
      | `Progress | `Paused -> ()
      | `Done -> Alcotest.failf "committer %d finished without acquiring" i
    done
  done;
  Machine.spawn_step m (n - 1)
    (Sm.suspend (fun () ->
         let tx = O.fresh t ~pid:(n - 1) ~id:n in
         let* _ = O.read t tx 0 in
         Sm.return ()));
  (match Sched.solo ~max_steps:200_000 m (n - 1) with
  | `Done -> ()
  | `Paused -> Alcotest.fail "helping reader paused");
  (* The old recursive helper crashed the reader right here; the iterative
     loop must finish it with every descriptor resolved. *)
  Machine.check_crashes m;
  Sched.round_robin m;
  Machine.check_crashes m;
  for i = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "object %d released (header clean)" i)
      false (owned i)
  done

(* ------------------------------------------------------------------ *)
(* Bounds_error typing                                                 *)
(* ------------------------------------------------------------------ *)

(* A TM that aborts every operation can satisfy no lower-bound script: the
   construction must identify itself and the diverging step in a typed
   error instead of a bare Failure. *)
module Abortive : Tm_intf.S = struct
  let name = "abortive"

  let props =
    {
      Tm_intf.opaque = false;
      weak_dap = true;
      invisible_reads = true;
      weak_invisible_reads = true;
      progressive = false;
      strongly_progressive = false;
    }

  type t = unit

  let create _ ~nobjs:_ = ()

  type tx = unit

  let fresh () ~pid:_ ~id:_ = ()
  let read () () _ = Error `Abort
  let write () () _ _ = Error `Abort
  let try_commit () () = Error `Abort
end

let test_bounds_error_typed () =
  match Ptm_bounds.Lemma2.run (module Abortive) ~i:4 with
  | _ -> Alcotest.fail "lemma2 accepted an always-aborting TM"
  | exception Ptm_bounds.Bounds_error.Bounds_error { construction; tm; stage }
    ->
      Alcotest.(check string) "construction" "lemma2" construction;
      Alcotest.(check string) "tm" "abortive" tm;
      Alcotest.(check bool) "stage is reported" true (String.length stage > 0)

(* ------------------------------------------------------------------ *)
(* Checkpoint / resume                                                 *)
(* ------------------------------------------------------------------ *)

(* Two-process TTAS mutual-exclusion fixture (as in test_explore), the
   workload for the journaling and domain tests. Two processes keep the
   schedule tree finite-ish under the step bound without tripping the leaf
   budget — a budget trip is resolved by a cross-domain race and would make
   the stats legitimately nondeterministic. *)
let mk_ttas ?(nprocs = 2) () =
  let m = Machine.create ~trace:Trace.Off ~nprocs () in
  let lock = Ttas.create m ~nprocs in
  let c = Machine.alloc m ~name:"c" (Value.Int 0) in
  for pid = 0 to nprocs - 1 do
    Machine.spawn m pid (fun () ->
        Ttas.enter lock ~pid;
        let v = Proc.read_int c in
        Proc.write c (Value.Int (v + 1));
        Ttas.exit_cs lock ~pid)
  done;
  m

let counter_is nprocs m =
  let mem = Machine.memory m in
  let rec find a =
    if a >= Memory.size mem then false
    else if String.equal (Memory.name mem a) "c" then
      Value.to_int (Memory.peek mem a) = nprocs
    else find (a + 1)
  in
  find 0

let explore_ttas ?checkpoint_file ?(resume = false) ?(domains = 1)
    ?(max_steps = 26) () =
  Explore.run ~mk:(mk_ttas ~nprocs:2) ~final:(counter_is 2) ~max_steps
    ~domains ?checkpoint_file ~resume ()

let temp_ckpt tag =
  let f = Filename.temp_file ("ptm-" ^ tag) ".ckpt" in
  Sys.remove f;
  f

let test_resume_completed_journal () =
  let f = temp_ckpt "done" in
  let fresh = explore_ttas ~checkpoint_file:f () in
  (* every task is on disk: the resume restores the whole run verbatim *)
  let resumed = explore_ttas ~checkpoint_file:f ~resume:true () in
  Sys.remove f;
  Alcotest.(check bool) "resume of a finished journal restores the stats" true
    (fresh = resumed)

let test_resume_mismatch_rejected () =
  let f = temp_ckpt "mismatch" in
  ignore (explore_ttas ~checkpoint_file:f ~max_steps:26 ());
  (match explore_ttas ~checkpoint_file:f ~resume:true ~max_steps:28 () with
  | _ -> Alcotest.fail "resume accepted a journal of a different exploration"
  | exception Invalid_argument _ -> ());
  Sys.remove f

(* Format 3 dropped a counter from the done lines. A format-2 journal of the
   same exploration must be refused: read as format 3, its done lines would
   fail to parse, be taken for lines cut short by a crash, and their tasks
   silently explored again. *)
let test_resume_v2_journal_rejected () =
  let f = temp_ckpt "v2" in
  ignore (explore_ttas ~checkpoint_file:f ());
  let ic = open_in f in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  close_in ic;
  let to_v2 l =
    match String.split_on_char ' ' l with
    | "ptm-ckpt" :: "3" :: rest -> String.concat " " ("ptm-ckpt" :: "2" :: rest)
    | "d" :: fields ->
        (* the format-2 column sat just before the exhausted flag, which is
           followed by the witness and the end marker *)
        let k = List.length fields - 3 in
        List.mapi (fun i x -> if i = k then [ "0"; x ] else [ x ]) fields
        |> List.concat
        |> List.cons "d"
        |> String.concat " "
    | _ -> l
  in
  let oc = open_out f in
  output_string oc (String.concat "\n" (List.map to_v2 lines));
  close_out oc;
  (match explore_ttas ~checkpoint_file:f ~resume:true () with
  | _ -> Alcotest.fail "resume accepted a format-2 journal"
  | exception Invalid_argument _ -> ());
  Sys.remove f

let count_done_lines file =
  if not (Sys.file_exists file) then 0
  else begin
    let ic = open_in file in
    let n = ref 0 in
    (try
       while true do
         let l = input_line ic in
         if String.length l > 0 && l.[0] = 'd' then incr n
       done
     with End_of_file -> ());
    close_in ic;
    !n
  end

(* A finite-tree fixture big enough that a kill lands mid-run: three
   processes race five FAA increments each on one cell — C(15;5,5,5) ≈
   757k complete leaves, a few seconds of naive enumeration. *)
let mk_race () =
  let nprocs = 3 and ops = 5 in
  let m = Machine.create ~trace:Trace.Off ~nprocs () in
  let c = Machine.alloc m ~name:"c" (Value.Int 0) in
  for pid = 0 to nprocs - 1 do
    Machine.spawn m pid (fun () ->
        for _ = 1 to ops do
          ignore (Proc.faa c 1)
        done)
  done;
  m

let explore_race ?checkpoint_file ?(resume = false) () =
  Explore.run ~mk:mk_race
    ~final:(counter_is 15)
    ~max_steps:20 ~max_paths:2_000_000 ?checkpoint_file ~resume ()

(* The real thing: fork an exploration journaling to disk, [kill -9] it
   once a few tasks have landed, then resume in-process — the final stats
   must equal an uninterrupted run's. *)
let test_resume_after_kill () =
  let ref_file = temp_ckpt "ref" in
  let reference = explore_race ~checkpoint_file:ref_file () in
  Sys.remove ref_file;
  let f = temp_ckpt "kill" in
  (match Unix.fork () with
  | 0 ->
      (try ignore (explore_race ~checkpoint_file:f ()) with _ -> ());
      Unix._exit 0
  | pid ->
      let deadline = Unix.gettimeofday () +. 60.0 in
      let rec wait_for_progress () =
        if count_done_lines f >= 3 || Unix.gettimeofday () > deadline then ()
        else
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ ->
              Unix.sleepf 0.002;
              wait_for_progress ()
          | _, _ -> () (* already finished: the journal is complete *)
      in
      wait_for_progress ();
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()));
  let resumed = explore_race ~checkpoint_file:f ~resume:true () in
  Sys.remove f;
  Alcotest.(check bool) "resume after kill -9 equals an uninterrupted run"
    true (reference = resumed)

(* ------------------------------------------------------------------ *)
(* Work-stealing determinism                                           *)
(* ------------------------------------------------------------------ *)

let test_domains_same_verdict () =
  let run domains = explore_ttas ~domains () in
  let a = run 1 and b = run 2 and c = run 4 in
  let key (s : Explore.stats) = (s.paths, s.cut, s.violations) in
  Alcotest.(check bool) "domains 1 == 2 on paths/cut/violations" true
    (key a = key b);
  Alcotest.(check bool) "domains 1 == 4 on paths/cut/violations" true
    (key a = key c)

let test_journal_domain_independent () =
  (* with a journal the task decomposition is fixed, so the full stats —
     replays and steps included — are identical whatever the domain count *)
  let fa = temp_ckpt "d1" and fb = temp_ckpt "d4" in
  let a = explore_ttas ~checkpoint_file:fa ~domains:1 () in
  let b = explore_ttas ~checkpoint_file:fb ~domains:4 () in
  Sys.remove fa;
  Sys.remove fb;
  Alcotest.(check bool) "journaled stats independent of domains" true (a = b)

let () =
  Alcotest.run "engines"
    [
      ( "differential",
        [
          Alcotest.test_case "fixtures bit-identical" `Quick
            test_fixture_differential;
          Alcotest.test_case "step form == direct form" `Quick
            test_step_vs_direct;
          Alcotest.test_case "explorer stats equal" `Slow
            test_explore_differential;
          of_q qcheck_engine_differential;
          of_q qcheck_apply_fast_pin;
        ] );
      ( "pinned",
        [ Alcotest.test_case "explorer stats" `Quick test_pinned_stats ] );
      ( "ostm",
        [ Alcotest.test_case "deep helping chain" `Quick test_ostm_deep_helping ]
      );
      ( "bounds",
        [ Alcotest.test_case "typed divergence error" `Quick
            test_bounds_error_typed ] );
      ( "checkpoint",
        [
          Alcotest.test_case "resume of finished journal" `Quick
            test_resume_completed_journal;
          Alcotest.test_case "mismatched journal rejected" `Quick
            test_resume_mismatch_rejected;
          Alcotest.test_case "format-2 journal rejected" `Quick
            test_resume_v2_journal_rejected;
          Alcotest.test_case "resume survives kill -9" `Slow
            test_resume_after_kill;
        ] );
      ( "work-stealing",
        [
          Alcotest.test_case "verdict independent of domains" `Slow
            test_domains_same_verdict;
          Alcotest.test_case "journaled stats independent of domains" `Slow
            test_journal_domain_independent;
        ] );
    ]
