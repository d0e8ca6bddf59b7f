(** Simulated processes (paper, Section 2).

    A process is poised on one event at a time. Its state between two
    scheduled steps is an {!outcome}: finished, crashed, or poised on a
    memory request, a note or a pause, together with a closure that resumes
    it with the response. Local computation between two primitive
    applications is free, exactly as in the step model of Section 2.

    The scheduler owns the resumption: after a process produces [Wants_mem]
    it is {e poised} to apply that event (the paper's "enabled event"); the
    event actually takes effect only when the scheduler next steps the
    process, at which point the primitive is applied to the then-current
    memory.

    Outcomes have two producers. {!start} runs a direct-style closure that
    performs the {!Apply}/{!Note}/{!Pause} effects inside an effect handler;
    each effect parks the fiber, and the outcome's closure continues it. A
    {!Step} program builds the outcomes itself, with no fiber. The machine
    sees one kind of process either way. *)

type request = { addr : Memory.addr; prim : Primitive.t }

type _ Effect.t +=
  | Apply : request -> Value.t Effect.t
  | Note : Trace.note -> unit Effect.t
  | Pause : unit Effect.t
        (** a voluntary stopping point: costs no step; used by experiment
            drivers to advance a process one t-operation at a time. *)

type outcome =
  | Done
  | Failed of exn
  | Wants_mem of request * (Value.t -> outcome)
  | Wants_note of Trace.note * (unit -> outcome)
  | Wants_pause of (unit -> outcome)

val start : (unit -> unit) -> outcome
(** Run a direct-style process body in a fiber until its first effect (or
    completion); an exception it raises, now or after a resumption, becomes
    [Failed]. *)

val resume : (Value.t -> outcome) -> Value.t -> outcome
(** Resume a [Wants_mem] closure with a response, catching an exception
    into [Failed]. *)

val resume_unit : (unit -> outcome) -> outcome
(** Resume a [Wants_note]/[Wants_pause] closure. *)

(** Effect-performing operations, callable only from inside a process body. *)

val apply : Memory.addr -> Primitive.t -> Value.t
val note : Trace.note -> unit
val pause : unit -> unit

(** Typed convenience wrappers around {!apply}. *)

val read : Memory.addr -> Value.t
val read_int : Memory.addr -> int
val read_bool : Memory.addr -> bool
val write : Memory.addr -> Value.t -> unit
val cas : Memory.addr -> expected:Value.t -> desired:Value.t -> bool
val tas : Memory.addr -> bool
val faa : Memory.addr -> int -> int
val fas : Memory.addr -> Value.t -> Value.t
val ll : Memory.addr -> Value.t
val sc : Memory.addr -> Value.t -> bool

(** Processes as defunctionalized step machines.

    A [Step.t] program is an explicit state value in continuation-passing
    style: running it yields an {!outcome} whose closures are plain OCaml
    code, so the scheduler advances the process with an ordinary
    (multi-shot) function call — no fiber switch per step. {!Step.perform}
    interprets a step program inside a direct-style body, performing the
    identical effect sequence, so a step program run either way produces
    bit-identical traces by construction.

    Construction discipline: a combinator expression is evaluated the moment
    it is applied, so any side effect outside a [bind] body (or a
    {!Step.suspend} thunk) runs at program-{e construction} time and would
    not replay under {!Machine.restart}. Operations that allocate or mutate
    (transaction handles, counters) must therefore live inside
    [suspend]/[bind] bodies, exactly as closure programs must not capture
    external mutable state. *)

module Step : sig
  type 'a t = ('a -> outcome) -> outcome
  (** A program delivering an ['a], as a function of its continuation. *)

  val return : 'a -> 'a t
  val bind : 'a t -> ('a -> 'b t) -> 'b t
  val map : ('a -> 'b) -> 'a t -> 'b t
  val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t

  val suspend : (unit -> 'a t) -> 'a t
  (** Defer construction (and its side effects) to run time. Wrap any
      operation whose construction allocates or mutates, so re-running the
      program ({!Machine.restart}) re-executes it. *)

  val apply : Memory.addr -> Primitive.t -> Value.t t
  val note : Trace.note -> unit t
  val pause : unit t

  (** Typed convenience wrappers around {!apply}, mirroring the direct-style
      operations above. *)

  val read : Memory.addr -> Value.t t
  val read_int : Memory.addr -> int t
  val read_bool : Memory.addr -> bool t
  val write : Memory.addr -> Value.t -> unit t
  val cas : Memory.addr -> expected:Value.t -> desired:Value.t -> bool t
  val tas : Memory.addr -> bool t
  val faa : Memory.addr -> int -> int t
  val fas : Memory.addr -> Value.t -> Value.t t
  val ll : Memory.addr -> Value.t t
  val sc : Memory.addr -> Value.t -> bool t

  (** Loop combinators. *)

  val iter : ('a -> unit t) -> 'a list -> unit t
  val for_ : int -> int -> (int -> unit t) -> unit t
  (** [for_ lo hi body] runs [body lo .. body hi] inclusive. *)

  val loop : ('s -> [ `Continue of 's | `Stop of 'r ] t) -> 's -> 'r t
  (** Tail-recursive state loop: iterate [f] from [s] until it stops. *)

  val start : unit t -> outcome
  (** Run a program until its first effect (or completion); an exception
      raised before the first effect becomes [Failed]. *)

  val perform : 'a t -> 'a
  (** Interpret a step program inside an effect-handler process (callable
      only from a process body): performs {!Apply}/{!Note}/{!Pause} for each
      [Wants_*] in program order. This is how a step program runs inside a
      fiber, and how direct-style code calls step-form code. *)
end
