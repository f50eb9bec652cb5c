(** The channel-mesh core shared by the simulation engines.

    The paper's system model (Section 4.4) is one set of FIFO channels:
    the client/server protocols use a star of them ({!Engine}), the
    serverless CSS a full mesh ({!P2p_engine}).  This module owns what
    both shapes share — channels with their batching outboxes, the one
    send path and its observability, the virtual clock, the flight
    recorder, per-replica OT/metadata delta snapshots, the spec-event
    history, the GC cycle with its shim-pruning step, the drain loop
    and the random driver — so an engine is reduced to a topology:
    which channels exist, which replica each feeds, and the protocol
    calls.

    It is deliberately not a functor: the typed lint's call graph does
    not resolve calls into functor instantiations, so code in a functor
    body would drop out of the determinism and escape analyses. *)

open Rlist_model

type t

(** [name] prefixes error messages.  The replicas occupy
    observability slots [0 .. slots - 1], whose cumulative OT count and
    metadata size [ot] and [meta] read; [document]/[visible] read
    client [i]'s (1-based) state for the spec-event history.  [net],
    [batching], [gc] and [history] as in {!Engine.Make.create}. *)
val create :
  name:string ->
  ?net:Rlist_net.Transport.config ->
  batching:bool ->
  ?gc:Rlist_gc.policy ->
  history:bool ->
  initial:Document.t ->
  slots:int ->
  ot:(int -> int) ->
  meta:(int -> int) ->
  document:(int -> Document.t) ->
  visible:(int -> Op_id.Set.t) ->
  unit ->
  t

(** {1 Channels} *)

(** Metric names of a channel; channels naming the same metric share
    it. *)
type tap = {
  sent : string;  (** counter: payloads entering the channel *)
  depth : string;  (** histogram: channel depth after each send *)
  delivered : string;  (** counter: payloads reaching the protocol *)
  batch_size : string option;  (** histogram: operations per payload *)
}

(** A directed FIFO channel carrying batches of ['m]: singletons with
    batching off; with it on, posts accumulate in an outbox flushed as
    one payload when a delivery targets the channel. *)
type 'm chan

(** Register a channel from endpoint [src] to [dst] (trace names).
    Registration order is tick order. *)
val chan :
  t -> src:string -> dst:string -> op_id:('m -> Op_id.t option) -> tap ->
  'm chan

(** Operations in the channel, unflushed outbox included. *)
val pending : 'm chan -> int

(** Ready wire arrivals, plus one for a non-empty outbox. *)
val deliverable : 'm chan -> int

(** The trace label of a batch: its operations' identifiers joined
    with ['+']; [None] when none carries one. *)
val label : 'm chan -> 'm list -> string option

(** [post t ch m] sends [m]: into the outbox with batching on,
    otherwise onto the wire as a singleton.  Returns the send's
    observation (counters, histograms, the trace [Send] event) for the
    caller to run once the trace events preceding it are out; batched
    posts are observed at flush time instead. *)
val post : t -> 'm chan -> 'm -> unit -> unit

(** {1 Events} *)

(** [generate t ~client ~slot ~replica ?via intent gen]: record the
    decision, run the protocol's [gen], then record the do event,
    count it for GC and observability, and emit its trace [Generate]
    event — whose queue is the depth of [via], the channel its message
    entered. *)
val generate :
  t ->
  client:int ->
  slot:int ->
  replica:string ->
  ?via:'m chan ->
  Intent.t ->
  (unit -> Protocol_intf.do_outcome * 'r) ->
  Protocol_intf.do_outcome * 'r

(** [deliver t ch ~slot decision receive]: flush [ch] and take one
    arrival; [None] when the fault layer or the shim consumed it.
    Otherwise record [decision], hand the batch to [receive], account
    the delivery to [slot] and emit its trace [Deliver] event. *)
val deliver :
  t -> 'm chan -> slot:int -> Rlist_obs.Recorder.decision ->
  ('m list -> 'r) -> ('m list * 'r) option

(** {1 Run state} *)

val clock : t -> int

(** Advance every channel one tick, then the clock. *)
val tick : t -> unit

val pending_messages : t -> int

val dedup_keys : t -> int

(** Sums over the slots. *)
val total_ot : t -> int

val total_meta : t -> int

val history : t -> bool

val trace : t -> Rlist_spec.Trace.t

val attach_recorder : t -> Rlist_obs.Recorder.t -> unit

(** Register the [prefix]-named engine metrics and every channel's
    {!tap}, snapshot each slot's counters, and hand [obs] to the
    network configuration. *)
val attach_obs : t -> Rlist_obs.Obs.t -> prefix:string -> unit

val obs : t -> Rlist_obs.Obs.t option

val tracing : t -> bool

val emit : t -> Rlist_obs.Event.t -> unit

val gc_stats : t -> Rlist_gc.stats option

(** Run a GC cycle if the policy's operation count is due.
    [compact x driver] runs the protocol's own compaction and returns
    the log entries it truncated and the size of any snapshot taken.
    The cycle then prunes every channel's dedup table and re-baselines
    the metadata snapshots.  Out of band: no sends, no RNG draws. *)
val maybe_gc :
  t -> compact:('a -> Rlist_gc.Driver.t -> int * int option) -> 'a -> unit

(** {1 Drivers} *)

(** A channel paired with the delivery event that drains it. *)
type 'e lane

val lane : 'm chan -> 'e -> 'e lane

(** Deliver through the lanes with [apply], in order, until every
    channel is empty, ticking whenever nothing is ready; returns the
    events performed.
    @raise Invalid_argument after 100 000 consecutive stalled ticks. *)
val quiesce : t -> 'e lane list -> ('e -> unit) -> 'e list

(** Interleave [params.updates] generations at writers
    [1 .. writers] with deliveries drawn among the deliverable lanes,
    then read once per writer; returns the schedule performed. *)
val run_random :
  t ->
  'e lane list ->
  apply:('e -> unit) ->
  generate:(int -> Intent.t -> 'e) ->
  writers:int ->
  doc_length:(int -> int) ->
  ?intent:(client:int -> doc_length:int -> Intent.t) ->
  rng:Random.State.t ->
  Schedule.random_params ->
  'e list
