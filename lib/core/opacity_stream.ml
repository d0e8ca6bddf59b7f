open Ptm_machine
module IMap = Map.Make (Int)

(* Validity intervals are (lo, hi) inclusive snapshot-index ranges, ascending
   and disjoint; [open_hi] as hi marks the (unique, topmost) interval that is
   still valid at the latest snapshot and keeps extending as snapshots are
   appended, until a conflicting commit closes it. *)
let open_hi = max_int

type event =
  | Inv of { pid : int; tx : int; op : History.op }
  | Res of { pid : int; tx : int; op : History.op; res : History.res }

let pp_event ppf = function
  | Inv { pid; tx; op } -> Fmt.pf ppf "p%d T%d inv %a" pid tx History.pp_op op
  | Res { pid; tx; op; res } ->
      Fmt.pf ppf "p%d T%d res %a -> %a" pid tx History.pp_op op History.pp_res
        res

type violation = { v_seq : int; v_event : string; v_reason : string }

type verdict = Opaque | Violation of violation | Inconclusive of string

let pp_violation ppf v =
  Fmt.pf ppf "at seq %d, %s: %s" v.v_seq v.v_event v.v_reason

let pp_verdict ppf = function
  | Opaque -> Fmt.string ppf "opaque"
  | Violation v -> Fmt.pf ppf "NOT opaque: %a" pp_violation v
  | Inconclusive msg -> Fmt.pf ppf "inconclusive: %s" msg

let is_ok = function Opaque -> true | _ -> false

type stats = {
  events : int;
  snapshots : int;
  max_frontier : int;
  max_live : int;
  resident : int;
  max_resident : int;
}

let pp_stats ppf s =
  Fmt.pf ppf
    "%d events, %d snapshots, frontier <= %d, live <= %d, resident %d (peak \
     %d)"
    s.events s.snapshots s.max_frontier s.max_live s.resident s.max_resident

(* ------------------------------------------------------------------ *)
(* Automaton states                                                    *)
(* ------------------------------------------------------------------ *)

type live = {
  l_lo : int;  (* snapshot index at the transaction's first event *)
  l_reads : int IMap.t;  (* externally read values: object -> value *)
  l_valid : (int * int) list;
      (* snapshots where the whole read set is valid *)
  l_wbuf : int IMap.t;  (* buffered writes: object -> latest value *)
  l_pending : bool;  (* tryC invoked, response not yet seen *)
}

type state = {
  nver : int;  (* latest snapshot index; 0 = initial memory *)
  hist : (int * int) list IMap.t;
      (* object -> (version, value), newest first; value holds from that
         version until the next entry's; below the oldest entry the object
         still held [Tm_intf.init_value] (pruning preserves this reading for
         every query above the watermark) *)
  live : live IMap.t;
  applied : int list;
      (* pending try-commits whose internal commit point this state has
         already linearized (speculatively: the response is still out) *)
}

let init_state = { nver = 0; hist = IMap.empty; live = IMap.empty; applied = [] }

let value_at st x s =
  match IMap.find_opt x st.hist with
  | None -> Tm_intf.init_value
  | Some l ->
      let rec go = function
        | [] -> Tm_intf.init_value
        | (ver, v) :: rest -> if ver <= s then v else go rest
      in
      go l

(* Ascending intervals of [lo0, st.nver] where object [x] holds [v]; the top
   interval is open iff it reaches the latest snapshot. *)
let value_intervals st ~lo0 x v =
  let entries = match IMap.find_opt x st.hist with None -> [] | Some l -> l in
  let acc = ref [] in
  let upper = ref st.nver in
  let add lo hi value =
    if value = v then begin
      let lo = max lo lo0 in
      if lo <= hi then
        acc := (lo, if hi = st.nver then open_hi else hi) :: !acc
    end
  in
  List.iter
    (fun (ver, value) ->
      add ver !upper value;
      upper := ver - 1)
    entries;
  if !upper >= 0 then add 0 !upper Tm_intf.init_value;
  !acc

let inter a b =
  let rec go a b acc =
    match (a, b) with
    | [], _ | _, [] -> List.rev acc
    | (la, ha) :: ta, (lb, hb) :: tb ->
        let lo = max la lb and hi = min ha hb in
        let acc = if lo <= hi then (lo, hi) :: acc else acc in
        if ha <= hb then go ta b acc else go a tb acc
  in
  go a b []

let top_open valid =
  match valid with
  | [] -> false
  | _ -> snd (List.nth valid (List.length valid - 1)) = open_hi

let close_top at valid =
  List.map (fun (lo, hi) -> if hi = open_hi then (lo, at) else (lo, hi)) valid

let rec prune_list wm = function
  | [] -> []
  | (ver, v) :: rest ->
      if ver > wm then (ver, v) :: prune_list wm rest else [ (ver, v) ]

(* Linearize the internal commit point of pending updating transaction [id]
   now: its read set must be valid at the latest snapshot. Appends the new
   snapshot, moves [id] to [applied], and re-derives every other live
   transaction's validity (close an open top on a value conflict; re-open on
   a snapshot that restores the whole read set). *)
let apply_commit st id =
  match IMap.find_opt id st.live with
  | None -> None
  | Some l ->
      if
        (not l.l_pending) || IMap.is_empty l.l_wbuf || not (top_open l.l_valid)
      then None
      else begin
        let nver = st.nver + 1 in
        let live = IMap.remove id st.live in
        let wm = IMap.fold (fun _ u m -> min m u.l_lo) live nver in
        let hist =
          IMap.fold
            (fun x v h ->
              let prev =
                match IMap.find_opt x h with None -> [] | Some e -> e
              in
              IMap.add x (prune_list wm ((nver, v) :: prev)) h)
            l.l_wbuf st.hist
        in
        let st' = { nver; hist; live; applied = id :: st.applied } in
        let touches u = IMap.exists (fun x _ -> IMap.mem x u.l_reads) l.l_wbuf in
        let conflicts u =
          IMap.exists
            (fun x v ->
              match IMap.find_opt x u.l_reads with
              | Some rv -> rv <> v
              | None -> false)
            l.l_wbuf
        in
        let live =
          IMap.map
            (fun u ->
              if top_open u.l_valid then
                if conflicts u then
                  { u with l_valid = close_top st.nver u.l_valid }
                else u
              else if
                touches u
                && IMap.for_all (fun x rv -> value_at st' x nver = rv) u.l_reads
              then { u with l_valid = u.l_valid @ [ (nver, open_hi) ] }
              else u)
            live
        in
        Some { st' with live }
      end

(* Canonical form for deduplication: maps compared as sets of bindings,
   applied order erased (once linearized, only membership matters — the
   snapshots already carry the order), and version numbers renumbered
   canonically. The checker only ever compares versions ordinally, so the
   concrete integers a commit order happened to assign are not observable:
   below the live watermark every object's sole surviving entry acts as the
   base snapshot (rank 0), and versions at or above it keep only their rank.
   Without this, commits with disjoint write sets and overlapping commit
   windows would yield one frontier state per application order forever
   (the global version counter leaks the order) — with it, they collapse as
   soon as the orders stop being distinguishable.

   The renaming needs no table. Every snapshot index in (wm, nver] was
   appended by a commit with a non-empty write set, and pruning only ever
   drops entries at or below a watermark, which never decreases along a
   state's history: so every such index survives in [hist], the versions
   the form mentions at or above [wm] are exactly [wm..nver], and version
   [v] ranks [v - wm + 1]. (Were an index ever missing, the shift would
   only tell more states apart, never merge more.) The form is never built
   either: [canon] computes the watermark and a hash of the renamed state
   in one pass, allocating nothing per object, and [canon_equal] compares
   two states in place, each renamed by its own watermark. *)
type canon = {
  c_st : state;
  c_wm : int;
  c_applied : int list;  (* sorted *)
  c_hash : int;
}

let rank wm v = if v < wm then 0 else v - wm + 1
let mix h x = (h lxor x) * 0x100000001b3

(* hash of the entries [prune_list wm] keeps: newest first, down to and
   including the first one at or below the watermark *)
let rec hash_pruned wm h = function
  | [] -> h
  | (ver, v) :: rest ->
      let h = mix (mix h (rank wm ver)) v in
      if ver > wm then hash_pruned wm h rest else h

let rec hash_valid wm h = function
  | [] -> h
  | (lo, hi) :: rest ->
      hash_valid wm
        (mix (mix h (rank wm lo)) (if hi = open_hi then -1 else rank wm hi))
        rest

let hash_live wm id u h =
  let h = mix (mix h id) (rank wm u.l_lo) in
  let h = IMap.fold (fun x v h -> mix (mix h x) v) u.l_reads h in
  let h = hash_valid wm h u.l_valid in
  let h = IMap.fold (fun x v h -> mix (mix h (lnot x)) v) u.l_wbuf h in
  if u.l_pending then mix h 1 else h

let canon st =
  let wm = IMap.fold (fun _ u m -> min m u.l_lo) st.live st.nver in
  let applied =
    match st.applied with
    | ([] | [ _ ]) as l -> l
    | l -> List.sort Int.compare l
  in
  let h = rank wm st.nver in
  let h = IMap.fold (fun x l h -> hash_pruned wm (mix h x) l) st.hist h in
  let h = IMap.fold (hash_live wm) st.live h in
  let h = List.fold_left mix h applied in
  { c_st = st; c_wm = wm; c_applied = applied; c_hash = h }

let canon_equal a b =
  let ra = rank a.c_wm and rb = rank b.c_wm in
  let rec pruned_equal la lb =
    match (la, lb) with
    | [], [] -> true
    | (va, xa) :: ta, (vb, xb) :: tb ->
        xa = xb && ra va = rb vb && (va <= a.c_wm || pruned_equal ta tb)
    | _ -> false
  in
  let rec valid_equal la lb =
    match (la, lb) with
    | [], [] -> true
    | (loa, hia) :: ta, (lob, hib) :: tb ->
        ra loa = rb lob
        && (if hia = open_hi then hib = open_hi
            else hib <> open_hi && ra hia = rb hib)
        && valid_equal ta tb
    | _ -> false
  in
  let live_equal u w =
    u.l_pending = w.l_pending
    && ra u.l_lo = rb w.l_lo
    && valid_equal u.l_valid w.l_valid
    && IMap.equal Int.equal u.l_reads w.l_reads
    && IMap.equal Int.equal u.l_wbuf w.l_wbuf
  in
  let sa = a.c_st and sb = b.c_st in
  ra sa.nver = rb sb.nver
  && List.equal Int.equal a.c_applied b.c_applied
  && IMap.equal pruned_equal sa.hist sb.hist
  && IMap.equal live_equal sa.live sb.live

module IHashtbl = Hashtbl.Make (Int)

(* First-occurrence-wins seen-set of canonical forms, bucketed by hash:
   [admit seen st] is true iff no state canon-equal to [st] was admitted
   before, and then admits [st]. *)
let admit seen st =
  let c = canon st in
  let bucket = Option.value ~default:[] (IHashtbl.find_opt seen c.c_hash) in
  if List.exists (canon_equal c) bucket then false
  else begin
    IHashtbl.replace seen c.c_hash (c :: bucket);
    true
  end

let dedup = function
  | ([] | [ _ ]) as sts -> sts
  | sts -> List.filter (admit (IHashtbl.create 8)) sts

let has_expandable ~except st =
  IMap.exists
    (fun id l -> id <> except && l.l_pending && not (IMap.is_empty l.l_wbuf))
    st.live

(* Closure of [sts] under speculative commit linearization (every order, all
   subsets) of pending updating transactions other than [except]. *)
let expand ~except sts =
  if not (List.exists (has_expandable ~except) sts) then sts
  else begin
    let seen = IHashtbl.create 16 in
    let out = ref [] in
    let rec go st =
      if admit seen st then begin
        out := st :: !out;
        IMap.iter
          (fun id l ->
            if id <> except && l.l_pending && not (IMap.is_empty l.l_wbuf) then
              match apply_commit st id with Some st' -> go st' | None -> ())
          st.live
      end
    in
    List.iter go sts;
    List.rev !out
  end

(* ------------------------------------------------------------------ *)
(* The checker                                                         *)
(* ------------------------------------------------------------------ *)

type t = {
  cap : int;
  mutable frontier : state list;
  mutable latched : verdict option;
  mutable events : int;
  outstanding : (int, int * History.op) Hashtbl.t;  (* pid -> pending inv *)
  started : (int, unit) Hashtbl.t;  (* tx ids ever seen *)
  finished : (int, unit) Hashtbl.t;  (* tx ids with a commit/abort response *)
  mutable snapshots : int;
  mutable peak_frontier : int;
  mutable peak_live : int;
  mutable resident : int;
  mutable peak_resident : int;
}

let create ?(max_frontier = 256) () =
  if max_frontier < 1 then
    invalid_arg "Opacity_stream.create: max_frontier must be >= 1";
  {
    cap = max_frontier;
    frontier = [ init_state ];
    latched = None;
    events = 0;
    outstanding = Hashtbl.create 8;
    started = Hashtbl.create 64;
    finished = Hashtbl.create 64;
    snapshots = 0;
    peak_frontier = 1;
    peak_live = 0;
    resident = 1;
    peak_resident = 1;
  }

let resident_of st =
  IMap.fold (fun _ l acc -> acc + List.length l) st.hist 0
  + IMap.cardinal st.live

let sample_resident t =
  let r = List.fold_left (fun acc st -> acc + resident_of st) 0 t.frontier in
  t.resident <- r;
  if r > t.peak_resident then t.peak_resident <- r

let fail t ~seq ev reason =
  t.latched <-
    Some
      (Violation
         { v_seq = seq; v_event = Fmt.str "%a" pp_event ev; v_reason = reason })

let step_read st tx x v =
  match IMap.find_opt tx st.live with
  | None -> None
  | Some l -> (
      match IMap.find_opt x l.l_wbuf with
      | Some w -> if w = v then Some st else None
      | None ->
          let nv = inter l.l_valid (value_intervals st ~lo0:l.l_lo x v) in
          if nv = [] then None
          else
            Some
              {
                st with
                live =
                  IMap.add tx
                    { l with l_reads = IMap.add x v l.l_reads; l_valid = nv }
                    st.live;
              })

let remove_applied id = List.filter (fun x -> x <> id)

let process t ~seq ev =
  match ev with
  | Inv { pid; tx; op } ->
      if Hashtbl.mem t.finished tx then
        fail t ~seq ev "invocation on a completed transaction"
      else if Hashtbl.mem t.outstanding pid then
        fail t ~seq ev
          "process invoked with an operation still pending (dropped \
           response?)"
      else begin
        Hashtbl.replace t.outstanding pid (tx, op);
        if not (Hashtbl.mem t.started tx) then begin
          Hashtbl.replace t.started tx ();
          t.frontier <-
            List.map
              (fun st ->
                {
                  st with
                  live =
                    IMap.add tx
                      {
                        l_lo = st.nver;
                        l_reads = IMap.empty;
                        l_valid = [ (st.nver, open_hi) ];
                        l_wbuf = IMap.empty;
                        l_pending = false;
                      }
                      st.live;
                })
              t.frontier
        end;
        match op with
        | History.Try_commit ->
            t.frontier <-
              List.map
                (fun st ->
                  match IMap.find_opt tx st.live with
                  | None -> st
                  | Some l ->
                      {
                        st with
                        live = IMap.add tx { l with l_pending = true } st.live;
                      })
                t.frontier
        | _ -> ()
      end
  | Res { pid; tx; op; res } -> (
      let inv_ok =
        match Hashtbl.find_opt t.outstanding pid with
        | Some (tx', op') when tx' = tx && op' = op ->
            Hashtbl.remove t.outstanding pid;
            true
        | Some _ ->
            fail t ~seq ev "response does not match the pending invocation";
            false
        | None ->
            fail t ~seq ev "response without a pending invocation";
            false
      in
      if inv_ok then
        match (op, res) with
        | History.Read x, History.RVal v ->
            let results =
              List.concat_map
                (fun st ->
                  match step_read st tx x v with
                  | Some st' -> [ st' ]
                  | None ->
                      (* only consistent if some pending commits linearize
                         first: branch over them *)
                      List.filter_map
                        (fun st' -> step_read st' tx x v)
                        (expand ~except:tx [ st ]))
                t.frontier
            in
            if results = [] then
              fail t ~seq ev "value is not in any reachable snapshot"
            else t.frontier <- dedup results
        | History.Write (x, v), History.ROk ->
            let results =
              List.filter_map
                (fun st ->
                  match IMap.find_opt tx st.live with
                  | None -> None
                  | Some l ->
                      Some
                        {
                          st with
                          live =
                            IMap.add tx
                              { l with l_wbuf = IMap.add x v l.l_wbuf }
                              st.live;
                        })
                t.frontier
            in
            if results = [] then
              fail t ~seq ev "write by a transaction that is not live"
            else t.frontier <- results
        | History.Try_commit, History.RCommit ->
            Hashtbl.replace t.finished tx ();
            (* mandatory branching: concurrent pending commits may linearize
               in either order inside their overlapping windows *)
            let candidates = expand ~except:tx t.frontier in
            let results =
              List.filter_map
                (fun st ->
                  if List.mem tx st.applied then
                    Some { st with applied = remove_applied tx st.applied }
                  else
                    match IMap.find_opt tx st.live with
                    | None -> None
                    | Some l ->
                        if IMap.is_empty l.l_wbuf then
                          if l.l_valid <> [] then
                            Some { st with live = IMap.remove tx st.live }
                          else None
                        else (
                          match apply_commit st tx with
                          | Some st' ->
                              Some
                                {
                                  st' with
                                  applied = remove_applied tx st'.applied;
                                }
                          | None -> None))
                candidates
            in
            if results = [] then
              fail t ~seq ev
                "read set invalid at every possible commit point"
            else t.frontier <- dedup results
        | _, History.RAbort ->
            Hashtbl.replace t.finished tx ();
            let results =
              List.filter_map
                (fun st ->
                  if List.mem tx st.applied then None
                  else Some { st with live = IMap.remove tx st.live })
                t.frontier
            in
            if results = [] then
              fail t ~seq ev
                "aborted transaction's writes were already observed"
            else t.frontier <- results
        | _ -> fail t ~seq ev "malformed response for this operation")

let on_event t ?seq ev =
  match t.latched with
  | Some _ -> ()
  | None ->
      let seq = match seq with Some s -> s | None -> t.events in
      t.events <- t.events + 1;
      process t ~seq ev;
      (match t.latched with
      | Some _ -> t.frontier <- []
      | None ->
          let n = List.length t.frontier in
          if n > t.cap then begin
            t.latched <-
              Some
                (Inconclusive
                   (Printf.sprintf
                      "frontier exceeded %d states at seq %d (pathological \
                       commit-window overlap)"
                      t.cap seq));
            t.frontier <- []
          end
          else begin
            if n > t.peak_frontier then t.peak_frontier <- n;
            match t.frontier with
            | st :: _ ->
                if st.nver > t.snapshots then t.snapshots <- st.nver;
                let lv = IMap.cardinal st.live in
                if lv > t.peak_live then t.peak_live <- lv
            | [] -> ()
          end);
      if t.events land 255 = 0 then sample_resident t

let on_entry t entry =
  match entry with
  | Trace.Note { seq; pid; note } -> (
      match note with
      | History.Tx_inv { tx; op; _ } -> on_event t ~seq (Inv { pid; tx; op })
      | History.Tx_res { tx; op; res; _ } ->
          on_event t ~seq (Res { pid; tx; op; res })
      | _ -> ())
  | Trace.Mem _ -> ()

let verdict t =
  match t.latched with
  | Some v -> v
  | None ->
      (* Finalization: transactions cut off mid-operation complete as
         aborted (their writes were never linearized), forever-pending
         try-commits complete as committed in states that linearized them
         and aborted elsewhere — every surviving frontier state is a witness
         completion, so a non-empty frontier decides. *)
      if t.frontier = [] then
        Violation
          { v_seq = -1; v_event = "(end)"; v_reason = "empty frontier" }
      else Opaque

let stats t =
  sample_resident t;
  {
    events = t.events;
    snapshots = t.snapshots;
    max_frontier = t.peak_frontier;
    max_live = t.peak_live;
    resident = t.resident;
    max_resident = t.peak_resident;
  }

let check_entries ?max_frontier entries =
  let t = create ?max_frontier () in
  List.iter (on_entry t) entries;
  (verdict t, stats t)

let check_trace ?max_frontier trace =
  let t = create ?max_frontier () in
  Trace.iter trace (on_entry t);
  (verdict t, stats t)
