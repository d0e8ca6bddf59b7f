(** All TM implementations, for generic tests, benches and experiments. *)

val all : Ptm_core.Tm_intf.tm list
(** Every general-purpose TM (excludes the single-object TMs, which restrict
    transactions to one t-object). *)

val single_object : Ptm_core.Tm_intf.tm list
(** The Section 5 substrates: {!Oneshot} (CAS) and {!Oneshot_llsc}. *)

val validation_class : Ptm_core.Tm_intf.tm list
(** The TMs in the Theorem 3 class: weak DAP + invisible reads. *)

val escape_class : Ptm_core.Tm_intf.tm list
(** TMs escaping the Theorem 3 bound by violating one premise. *)

val sharded : Ptm_core.Tm_intf.tm list
(** The sharded multi-TM family in direct style (names ["norec.x4"]
    etc.), derived from {!sharded_stepwise} with
    {!Ptm_core.Tm_intf.Of_step}. Excluded from {!all}: generic property
    tests assume the inner TMs' fine-grained guarantees, which sharding
    deliberately forfeits (see {!Sharded}). *)

val ofree_cms : Ptm_core.Tm_intf.tm list
(** The obstruction-free family under every contention manager: ["ofree"]
    (Karma, the only variant also in {!all}), ["ofree+aggr"],
    ["ofree+polite"], ["ofree+ts"]. E18's sweep axis. *)

val ofree_with_cm : Ptm_core.Cm.kind -> Ptm_core.Tm_intf.tm
(** The {!Ofree} variant running the given contention manager (the [--cm]
    flag's resolution). *)

val by_name : string -> Ptm_core.Tm_intf.tm option

val stepwise : Ptm_core.Tm_intf.tm_step list
(** The TMs available in step-machine form ({!Ptm_core.Tm_intf.S_step}),
    runnable on either {!Ptm_machine.Machine} backend. Their direct-style
    modules in {!all} are derived from these, so the two forms are
    event-identical. *)

val ofree_cms_stepwise : Ptm_core.Tm_intf.tm_step list
(** Step forms of {!ofree_cms}, for exploration per contention manager. *)

val ofree_with_cm_step : Ptm_core.Cm.kind -> Ptm_core.Tm_intf.tm_step
(** Step form of {!ofree_with_cm}. *)

val sharded_stepwise : Ptm_core.Tm_intf.tm_step list
(** The sharded family as authored: {!Sharded.Make} at 4 shards over the
    step forms of NOrec, TL2, undo-log, SGL and Ofree. *)

val stepwise_by_name : string -> Ptm_core.Tm_intf.tm_step option
(** Looks up {!stepwise}, {!sharded_stepwise} and {!ofree_cms_stepwise}. *)
