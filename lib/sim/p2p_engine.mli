(** Simulation engine for peer-to-peer protocols: [n] peers with a
    FIFO channel per ordered pair, schedule-driven like
    {!Engine}. *)

open Rlist_model

type event =
  | Generate of int * Intent.t  (** Peer [i] performs an intent. *)
  | Deliver of int * int  (** Deliver the oldest message on the channel
                              from the first peer to the second. *)

val pp_event : Format.formatter -> event -> unit

module Make (P : P2p_protocol_intf.P2P_PROTOCOL) : sig
  type t

  (** [net] as in {!Engine.Make.create}: fault-injected channels drawn
      from a shared network configuration instead of perfect FIFO
      queues.  [batching] (default [false]) as in
      {!Engine.Make.create}: broadcasts accumulate in per-channel
      outboxes, flushed as one batch payload — one sequence number,
      one retransmission unit — when a delivery event targets the
      channel; the protocol's [receive] gets the batch whole.

      [gc], when given, runs the continuous compaction discipline at
      the shim level: peer-to-peer protocols have no ack-driven stable
      frontier, so a cycle prunes the channels' dedup tables only.
      Cycles are out of band (no sends, no RNG draws), so a GC-on run
      is schedule-identical to the same seed with GC off. *)
  val create :
    ?initial:Document.t ->
    ?net:Rlist_net.Transport.config ->
    ?batching:bool ->
    ?gc:Rlist_gc.policy ->
    ?fastpath:Rlist_ot.Fastpath.t ->
    npeers:int ->
    unit ->
    t

  val npeers : t -> int

  val apply_event : t -> event -> unit

  val run : t -> event list -> unit

  (** Deliver all pending messages (round-robin over channels) until
      quiescent; reactions may enqueue further messages.  Returns the
      deliveries performed. *)
  val quiesce : t -> event list

  val pending_messages : t -> int

  (** Depth of the FIFO channel from [src] to [dst], for enumerating
      the enabled delivery events of a configuration. *)
  val channel_depth : t -> src:int -> dst:int -> int

  val document : t -> int -> Document.t

  val converged : t -> bool

  val trace : t -> Rlist_spec.Trace.t

  val total_ot_count : t -> int

  val total_metadata_size : t -> int

  val total_buffered : t -> int

  val peer : t -> int -> P.peer

  (** Cumulative GC accounting; [None] without a policy. *)
  val gc_stats : t -> Rlist_gc.stats option

  (** Random driver, mirroring [Engine.run_random]: generates [updates]
      intents at random peers under random valid interleavings, then
      quiesces and reads everywhere.  Returns the concrete schedule. *)
  val run_random :
    ?intent:(client:int -> doc_length:int -> Intent.t) ->
    t ->
    rng:Random.State.t ->
    params:Schedule.random_params ->
    event list

  (** Attach an observability context (see {!Engine.attach_obs}):
      per-delivery transform deltas, broadcast counts, channel depths,
      buffered-operation and metadata gauges. *)
  val attach_obs : t -> Rlist_obs.Obs.t -> unit

  val obs : t -> Rlist_obs.Obs.t option

  (** Attach a flight recorder (see {!Engine.attach_recorder}):
      records generated intents, peer deliveries, batch flushes, the
      tick schedule, and — through the network configuration — the
      wire's fault draws. *)
  val attach_recorder : t -> Rlist_obs.Recorder.t -> unit

  (** The engine's virtual clock (ticks performed). *)
  val clock : t -> int
end
