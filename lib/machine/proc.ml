type request = { addr : Memory.addr; prim : Primitive.t }

type _ Effect.t +=
  | Apply : request -> Value.t Effect.t
  | Note : Trace.note -> unit Effect.t
  | Pause : unit Effect.t

type outcome =
  | Done
  | Failed of exn
  | Wants_mem of request * (Value.t -> outcome)
  | Wants_note of Trace.note * (unit -> outcome)
  | Wants_pause of (unit -> outcome)

(* A direct-style body runs in a fiber; each effect it performs parks it as
   the outcome a step program would have produced, with the fiber's resumption
   as the closure. An exception raised after a resumption reaches [exnc], so
   resuming a fiber outcome never raises. *)
let start f =
  Effect.Deep.match_with f ()
    {
      retc = (fun () -> Done);
      exnc = (fun e -> Failed e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Apply req ->
              Some
                (fun (k : (a, outcome) Effect.Deep.continuation) ->
                  Wants_mem (req, fun v -> Effect.Deep.continue k v))
          | Note n ->
              Some
                (fun (k : (a, outcome) Effect.Deep.continuation) ->
                  Wants_note (n, fun () -> Effect.Deep.continue k ()))
          | Pause ->
              Some
                (fun (k : (a, outcome) Effect.Deep.continuation) ->
                  Wants_pause (fun () -> Effect.Deep.continue k ()))
          | _ -> None);
    }

let resume (k : Value.t -> outcome) (v : Value.t) : outcome =
  try k v with e -> Failed e

let resume_unit (k : unit -> outcome) : outcome =
  try k () with e -> Failed e

let apply addr prim = Effect.perform (Apply { addr; prim })
let note n = Effect.perform (Note n)
let pause () = Effect.perform Pause
let read a = apply a Primitive.Read
let read_int a = Value.to_int (read a)
let read_bool a = Value.to_bool (read a)
let write a v = ignore (apply a (Primitive.Write v))

let cas a ~expected ~desired =
  Value.to_bool (apply a (Primitive.Cas { expected; desired }))

let tas a = Value.to_bool (apply a Primitive.Tas)
let faa a k = Value.to_int (apply a (Primitive.Faa k))
let fas a v = apply a (Primitive.Fas v)
let ll a = apply a Primitive.Ll
let sc a v = Value.to_bool (apply a (Primitive.Sc v))

(* ------------------------------------------------------------------ *)
(* Defunctionalized step machines.                                     *)
(*                                                                     *)
(* A [Step] program builds its outcomes directly: running it one step  *)
(* applies an ordinary OCaml closure to the pending response, no fiber *)
(* involved. [perform] interprets a step program inside a fiber,       *)
(* performing the same effects in the same order, which is what makes  *)
(* the two ways of running it bit-identical by construction.           *)
(* ------------------------------------------------------------------ *)

module Step = struct
  type 'a t = ('a -> outcome) -> outcome

  (* [return], [bind], [map] and [suspend] take the continuation in a
     separate closure ([(); fun k -> ...] stops the compiler merging it into
     the function's arity). Programs apply them partially — every [let*]
     builds [bind m f] — and a partial application of a function of full
     arity allocates a chain of currying closures, one per argument. *)
  let return x = (); fun k -> k x
  let bind m f = (); fun k -> m (fun x -> f x k)
  let map f m = (); fun k -> m (fun x -> k (f x))
  let ( let* ) = bind
  let suspend f = (); fun k -> f () k
  let apply addr prim k = Wants_mem ({ addr; prim }, k)
  let note n k = Wants_note (n, k)
  let pause k = Wants_pause k
  let read a k = Wants_mem ({ addr = a; prim = Primitive.Read }, k)
  let read_int a k =
    Wants_mem ({ addr = a; prim = Primitive.Read }, fun v -> k (Value.to_int v))
  let read_bool a k =
    Wants_mem
      ({ addr = a; prim = Primitive.Read }, fun v -> k (Value.to_bool v))
  let write a v k =
    Wants_mem ({ addr = a; prim = Primitive.Write v }, fun _ -> k ())
  let cas a ~expected ~desired k =
    Wants_mem
      ( { addr = a; prim = Primitive.Cas { expected; desired } },
        fun v -> k (Value.to_bool v) )
  let tas a k =
    Wants_mem ({ addr = a; prim = Primitive.Tas }, fun v -> k (Value.to_bool v))
  let faa a n k =
    Wants_mem
      ({ addr = a; prim = Primitive.Faa n }, fun v -> k (Value.to_int v))
  let fas a v k = Wants_mem ({ addr = a; prim = Primitive.Fas v }, k)
  let ll a k = Wants_mem ({ addr = a; prim = Primitive.Ll }, k)
  let sc a v k =
    Wants_mem ({ addr = a; prim = Primitive.Sc v }, fun r -> k (Value.to_bool r))

  let rec iter f = function
    | [] -> return ()
    | x :: rest -> bind (f x) (fun () -> iter f rest)

  let rec for_ lo hi body =
    if lo > hi then return ()
    else bind (body lo) (fun () -> for_ (lo + 1) hi body)

  let rec loop f s =
    bind (f s) (function `Stop r -> return r | `Continue s' -> loop f s')

  let start (p : unit t) : outcome =
    try p (fun () -> Done) with e -> Failed e

  let perform (type a) (p : a t) : a =
    let cell : a option ref = ref None in
    let rec drive = function
      | Done -> ()
      | Failed e -> raise e
      | Wants_mem (req, k) -> drive (k (Effect.perform (Apply req)))
      | Wants_note (n, k) ->
          Effect.perform (Note n);
          drive (k ())
      | Wants_pause k ->
          Effect.perform Pause;
          drive (k ())
    in
    drive
      (p (fun x ->
           cell := Some x;
           Done));
    match !cell with
    | Some x -> x
    | None -> invalid_arg "Proc.Step.perform: program did not deliver a value"
end
