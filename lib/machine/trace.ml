type note = ..
type note += Label of string

type mem_event = {
  seq : int;
  pid : int;
  addr : int;
  prim : Primitive.t;
  resp : Value.t;
  changed : bool;
}

type entry = Mem of mem_event | Note of { seq : int; pid : int; note : note }

type sink = Off | Full

(* Array-backed sink. [buf] is grow-on-demand flat storage for [Full], so
   under [Full] an entry's index is its seq. [total] is the global sequence
   counter: it advances on every recorded event, including the ones an [Off]
   sink does not retain, so seq numbers are schedule positions regardless of
   the sink. *)
type t = {
  sink : sink;
  mutable buf : entry array;
  mutable stored : int;
  mutable total : int;
  mutable observer : (entry -> unit) option;
      (* called on every note entry, even under an [Off] sink — the hook an
         online monitor (e.g. the streaming opacity checker) attaches to *)
}

let create ?(sink = Full) () =
  { sink; buf = [||]; stored = 0; total = 0; observer = None }

let set_observer t f = t.observer <- f

let sink t = t.sink
let recording t = t.sink <> Off

(* Count an event the machine elided recording for (Off sink fast path). *)
let tick t = t.total <- t.total + 1

let push t e =
  (match t.sink with
  | Off -> ()
  | Full ->
      let cap = Array.length t.buf in
      if t.stored >= cap then begin
        let fresh = Array.make (max 64 (2 * cap)) e in
        Array.blit t.buf 0 fresh 0 t.stored;
        t.buf <- fresh
      end;
      t.buf.(t.stored) <- e;
      t.stored <- t.stored + 1);
  t.total <- t.total + 1

let add_mem t ~pid ~addr prim resp changed =
  match t.sink with
  | Off -> tick t
  | _ -> push t (Mem { seq = t.total; pid; addr; prim; resp; changed })

let add_note t ~pid note =
  match t.observer with
  | None -> (
      match t.sink with
      | Off -> tick t
      | _ -> push t (Note { seq = t.total; pid; note }))
  | Some f ->
      let e = Note { seq = t.total; pid; note } in
      (match t.sink with Off -> tick t | _ -> push t e);
      f e

(* Return to the post-create state in place, keeping [buf] allocated so a
   pooled machine's next run reuses the storage. *)
let clear t =
  t.stored <- 0;
  t.total <- 0

let length t = t.total
let stored t = t.stored

let get t seq =
  if seq < 0 || seq >= t.stored then
    invalid_arg "Trace.get: seq not retained by this sink";
  t.buf.(seq)

let iter t f =
  for i = 0 to t.stored - 1 do
    f t.buf.(i)
  done

let iter_from t seq f =
  for i = max 0 seq to t.stored - 1 do
    f t.buf.(i)
  done

let entries t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.buf.(i) :: acc) in
  go (t.stored - 1) []

let mem_events t =
  let rec go i acc =
    if i < 0 then acc
    else
      match t.buf.(i) with
      | Mem e -> go (i - 1) (e :: acc)
      | Note _ -> go (i - 1) acc
  in
  go (t.stored - 1) []

let pp_note_default ppf = function
  | Label s -> Fmt.pf ppf "label %S" s
  | _ -> Fmt.pf ppf "<note>"

let pp_entry ~pp_note ppf = function
  | Mem { seq; pid; addr; prim; resp; changed } ->
      Fmt.pf ppf "%4d p%d  b%d %a -> %a%s" seq pid addr Primitive.pp prim
        Value.pp resp
        (if changed then " *" else "")
  | Note { seq; pid; note } -> Fmt.pf ppf "%4d p%d  %a" seq pid pp_note note
