(** A directed message channel: either the perfect FIFO queue the
    paper's system model assumes (Section 4.4), or an unreliable link
    driven by a {!Faults.spec} with an optional reliability shim.

    The shim stamps every payload with a per-channel sequence number,
    buffers unacknowledged payloads at the sender, retransmits them on
    a backed-off timeout, resequences out-of-order arrivals, suppresses
    duplicates (by sequence number, plus an application-supplied
    operation-identifier guard), and returns acknowledgements over the
    equally unreliable reverse link.  An ack is cumulative plus
    selective, in the manner of TCP SACK: it also lists the payloads
    the receiver holds out of order, which the sender then does not
    resend, and a hole below a listed payload is resent as soon as
    the ack arrives.  As long as the fault model lets some
    transmission through eventually (drop < 1, partitions heal),
    every payload is delivered exactly once, in order — the
    FIFO-exactly-once contract restored.

    Time is a per-channel virtual clock advanced by {!tick}; the
    simulation engines tick every channel once per scheduler step.
    All randomness comes from the config's seeded RNG, so runs are
    deterministic. *)

(** Shared configuration: one per simulated network.  Channels created
    from the same config share its RNG (deterministic given the
    engine's event order) and its {!Stats.t} aggregate. *)
type config

(** [config ~faults ~seed ()] — [shim] defaults to [true]; [rto] is
    the retransmission timeout in ticks (default 12, backed off
    exponentially per attempt, capped at 16x).
    @raise Invalid_argument on an invalid fault spec or [rto < 1]. *)
val config :
  ?shim:bool -> ?rto:int -> faults:Faults.spec -> seed:int -> unit -> config

val stats : config -> Stats.t

(** Attach (or detach, with [None]) an observability bundle: channels
    of this config emit a [Wire] trace event for every fault incident
    the wire produces — drops, partition drops, duplicates, reorder
    jitter, retransmissions, acks, duplicate suppressions and
    out-of-order buffering — stamped with the channel label and its
    virtual clock.  Detached, the hook costs one [None] branch. *)
val set_obs : config -> Rlist_obs.Obs.t option -> unit

(** Attach (or detach) a flight recorder: every transmission outcome,
    retransmission, and ack decision the fault model takes is recorded
    as a replay witness. *)
val set_recorder : config -> Rlist_obs.Recorder.t option -> unit

type 'a t

(** The seed repository's channel: a plain FIFO queue, no overhead. *)
val perfect : unit -> 'a t

(** A channel under [config]'s fault model.  [key], when given, names
    each payload by an operation identifier; the shim refuses to
    deliver the same key twice on one channel (defense in depth for
    reconnects), so no two distinct payloads on one channel may share
    a key.  [weight] is the number of operations a payload
    carries (default 1) — batching engines pass [List.length] so
    {!Stats.t}'s per-operation counters ([op_payloads],
    [op_transmissions]) stay meaningful.  [name] labels the channel in
    wire trace events and recorder decisions (default ["wire"]). *)
val create :
  ?key:('a -> Rlist_model.Op_id.t option) ->
  ?weight:('a -> int) ->
  ?name:string ->
  config ->
  'a t

val is_lossy : 'a t -> bool

val send : 'a t -> 'a -> unit

(** How many delivery attempts can currently succeed: ready wire
    arrivals plus resequenced payloads the shim can already release. *)
val deliverable : 'a t -> int

(** Process one arrival.  [None] when nothing is ready or when the
    fault layer / shim consumed the arrival internally (a duplicate, an
    out-of-order payload entering the resequencing buffer).  Exactly
    the engine's delivery event. *)
val deliver : 'a t -> 'a option

(** Application payloads sent but not yet delivered.  With the shim
    these are all still recoverable, so a driver loop that ticks and
    delivers until [pending = 0] terminates with probability 1. *)
val pending : 'a t -> int

(** Advance the virtual clock one step: consume the ack that arrived
    (retiring its cumulative prefix, marking what it lists and
    resending the holes it exposes), flush the receiver's pending ack,
    and retransmit whatever timed out. *)
val tick : 'a t -> unit

val now : 'a t -> int

(** {1 Metadata GC}

    The receiver-side dedup table ([seen_keys]) grows with every
    keyed delivery and is the shim's only unbounded structure (the
    retransmission buffer is already ack-pruned on {!tick}).  The GC
    driver calls {!prune_delivered} during each compaction cycle. *)

(** [prune_delivered t ~retain] drops dedup keys for payloads
    delivered more than [retain] sequence numbers before the newest
    delivery; returns how many were dropped.  In-session duplicates
    are already suppressed by the sequence check alone (a key is only
    ever sent under one seqno), so the retained window only needs to
    cover the checkpoint lag: a receiver restored from a checkpoint
    replays that checkpoint's keys to catch rolled-back seqno reuse.
    No-op on perfect channels. *)
val prune_delivered : 'a t -> retain:int -> int

(** Current dedup-table population ([0] for perfect channels). *)
val dedup_keys : 'a t -> int

(** {1 Crash / reconnect}

    A crash loses a replica's volatile state; what survives is
    whatever it checkpointed.  The sender state (sequence counter plus
    retransmission buffer) and receiver state (expected sequence
    number, resequencing buffer, delivered-key set) of each endpoint
    can be checkpointed and restored; {!drop_wire} models the
    connection reset.  Recovery is complete as long as checkpoints
    follow write-ahead discipline: a replica checkpoints {e before}
    its next cumulative ack leaves (acks only leave on {!tick}), so
    the peer still buffers everything past the checkpoint.  A restored
    receiver may forget payloads it held out of order that an ack has
    already listed; the sender's marks are replaced by every ack and
    never cover the payload the receiver waits for next, so those
    payloads are resent as well. *)

type 'a sender_state

type 'a receiver_state

val sender_checkpoint : 'a t -> 'a sender_state

val restore_sender : 'a t -> 'a sender_state -> unit

val receiver_checkpoint : 'a t -> 'a receiver_state

val restore_receiver : 'a t -> 'a receiver_state -> unit

(** Lose everything in flight (payloads and acks) on this channel. *)
val drop_wire : 'a t -> unit
