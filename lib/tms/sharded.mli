(** Sharded multi-TM: [C.shards] independent inner TM instances keyed by
    object hash (object [x] lives in shard [x mod shards]), composed into a
    single TM by a commit-fence / seqlock two-phase protocol:

    - uncached t-reads are one-shot {e mini-transactions} against the
      owning shard, sampled inside a stable window (per-shard fence clear
      and seqlock unchanged across the sample), and value-validated
      NOrec-style whenever any touched shard's seqlock moves;
    - t-writes are buffered; try_commit acquires the fences of every
      shard it touched in ascending order, revalidates the read cache,
      publishes each shard's writes as a write-only inner transaction, and
      bumps each shard's seqlock before releasing its fence.

    Single-shard transactions take the fast path — a read-only commit
    costs zero events and a single-shard writer acquires one fence; only
    genuinely cross-shard commits pay multi-fence coordination. With
    [shards = 1] every operation passes straight through to the inner TM,
    event for event ({!Make} with [shards = 1] is trace-identical to its
    argument — a differential over every step-form registry TM pins this).

    The protocol is written once, in step-machine form, over a step-form
    inner TM: a sharded TM runs on either {!Ptm_machine.Machine} backend,
    and its direct-style form is derived with {!Ptm_core.Tm_intf.Of_step}.

    The composition is opaque for any opaque inner TM (crashes included: a
    fence-holder crash starves that shard but cannot expose a torn commit)
    but deliberately forfeits the finer properties — sharding is the
    load-engine throughput play, not a progress result. *)

module type Config = sig
  val shards : int
end

module Make (_ : Config) (_ : Ptm_core.Tm_intf.S_step) :
  Ptm_core.Tm_intf.S_step
