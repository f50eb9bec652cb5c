(** Long-horizon soak driver: millions of operations through one
    engine, sampled in chunks, to measure whether metadata and per-op
    latency stay flat under the continuous GC ({!Rlist_gc}) or grow
    without bound without it.

    The driver applies the workload in chunks of [chunk] updates; each
    chunk runs {!Rlist_sim.Engine.Make.run_timed} (which quiesces and
    reads once per client) on the {e same} engine, so state carries
    across the whole horizon while the RNG stream stays one
    deterministic sequence per seed.  The timed scheduler — not the
    random one — because a long random walk lets the unacked window
    (and with it the transform lattice) grow without bound, making
    per-op cost scale with the horizon; the latency model holds the
    in-flight window at its steady state ({!Rlist_workload.Workload.timed_params}).  The engine runs with
    [history:false] — the spec trace and behaviour list are the only
    engine structures that grow with the horizon regardless of GC, and
    a million-op soak cannot afford them.

    The only wall-clock this module sees is the [now] argument, so the
    library stays clock-free (determinism lint); callers pass
    [Unix.gettimeofday].  All measured numbers (metadata, heap,
    digest, GC accounting) are seed-deterministic; only the latency
    samples vary run to run. *)

type sample = {
  x_ops : int;  (** Cumulative updates applied after this chunk. *)
  x_us_per_op : float;  (** Mean wall µs per update over the chunk. *)
  x_meta : int;  (** Live protocol metadata after the chunk quiesced. *)
  x_heap_words : int;  (** [Stdlib.Gc.quick_stat].heap_words. *)
  x_gc_cycles : int;  (** Cumulative compaction cycles. *)
  x_reclaimed : int;  (** Cumulative reclaimed states + log entries. *)
  x_dedup_keys : int;  (** Live dedup keys across the channel shims. *)
}

type result = {
  l_protocol : string;
  l_profile : Rlist_workload.Workload.profile;
  l_updates : int;
  l_chunk : int;
  l_seed : int;
  l_gc : Rlist_gc.policy option;
  l_samples : sample list;  (** Oldest first, one per chunk. *)
  l_meta_peak : int;
  l_heap_peak : int;
  l_p50_us : float;  (** Median of the chunk means. *)
  l_p99_us : float;  (** 99th percentile of the chunk means. *)
  l_flat_meta : float;
      (** Mean live metadata over the last quarter of chunks divided
          by the mean over the first quarter — ~1 when flat, growing
          with the horizon when unbounded. *)
  l_flat_latency : float;  (** Same ratio for the latency samples. *)
  l_digest : string;
      (** Hex digest of the concatenated final documents — identical
          for GC-on and GC-off runs of the same spec (the
          transparency gate). *)
  l_converged : bool;
  l_gc_stats : Rlist_gc.stats option;
  l_elapsed_s : float;
}

(** [run ~now ~protocol ~profile ~nclients ~updates ~chunk ~seed ()]
    soaks a client/server protocol: a {!Protocols} key whose entry is
    a [Star].  [gc]
    enables the compaction policy; [faults] (default none) wires the
    fault-injected transport with the reliability shim on.
    @raise Invalid_argument as {!check} does. *)
val run :
  ?gc:Rlist_gc.policy ->
  ?faults:Rlist_net.Faults.spec ->
  now:(unit -> float) ->
  protocol:string ->
  profile:Rlist_workload.Workload.profile ->
  nclients:int ->
  updates:int ->
  chunk:int ->
  seed:int ->
  unit ->
  result

(** The arguments {!run} refuses before it starts.
    @raise Invalid_argument on an unknown or peer-to-peer protocol,
    or non-positive [nclients]/[updates]/[chunk]. *)
val check : protocol:string -> nclients:int -> updates:int -> chunk:int -> unit

(** One JSON object (samples included), for [BENCH_longrun.json]
    and the CLI's [--json]. *)
val result_to_json : result -> Rlist_obs.Json.t

val pp : Format.formatter -> result -> unit
