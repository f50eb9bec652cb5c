(** Continuous metadata garbage collection: the compaction policy and
    the per-run driver bookkeeping.

    The paper names metadata overhead as Jupiter's open problem: the
    n-ary ordered state space, the server's serialization log, and the
    reliability shim's dedup tables all grow without bound over an
    unbounded execution.  The pieces that bound each of them exist —
    [Pruned_protocol] rebases the space onto the acked-stable frontier
    with [State_space.compact], [Snapshot] serializes the stable
    document, and the shim ack-prunes its retransmission buffer — but a
    *discipline* has to decide when to run them.  This module is that
    discipline: a declarative {!policy} (how many operations between
    cycles, how much dedup history to retain, how often to snapshot)
    and a {!Driver} that owns the operation counter and the
    reclaimed-metadata counters.

    The module is deliberately dependency-free: the engines in
    [lib/sim] consume it, the CLI parses it, and recording headers
    round-trip it through {!to_string}/{!of_string}, so it must sit
    below all of them.

    Determinism contract: a GC cycle is driven entirely by the
    simulation's operation count — never by wall-clock time or
    randomness — and the engines run cycles *out of band*
    (direct protocol calls on empty channels, no transport sends, no
    RNG draws).  Two runs of the same seed with GC on and off therefore
    produce bit-identical schedules, behaviours, and final documents;
    the GC-on run just carries less metadata.  [test/test_gc.ml] holds
    this differentially over ~300 seeded workloads. *)

type policy = {
  every_ops : int;
      (** start a compaction cycle after every [n] list operations
          applied anywhere in the system (generates and op-bearing
          deliveries both count) *)
  retain_keys : int;
      (** how many most-recently-delivered dedup keys each shim
          receiver keeps when pruning; the window must cover the
          checkpoint lag (a restored receiver replays keys from its
          last checkpoint) *)
  snapshot_every : int;
      (** take a stable snapshot every [n]-th cycle; [0] disables
          snapshotting *)
}

val default : policy
(** [every_ops = 64], [retain_keys = 64], [snapshot_every = 4]. *)

val to_string : policy -> string
(** Canonical comma-separated form, e.g. ["ops=64,retain=64,snap=4"].
    Round-trips through {!of_string}; recording headers store this. *)

val of_string : string -> (policy, string) result
(** Parse ["ops=N" | "retain=N" | "snap=N"] comma-separated, any
    order; [ops=] is required, the others take {!default}'s values when
    unset.  ["default"] is accepted as a synonym for {!default}. *)

val pp : Format.formatter -> policy -> unit

(** Cumulative per-run GC accounting.  None of these feed verdicts,
    digests, or recorded decisions — the GC-on/GC-off digest-equality
    gate depends on that. *)
type stats = {
  cycles : int;
  reclaimed_states : int;  (** state-space nodes freed by compaction *)
  reclaimed_log : int;  (** serialization-log (WAL) entries truncated *)
  reclaimed_keys : int;  (** shim dedup keys pruned *)
  heartbeats : int;  (** out-of-band heartbeats injected *)
  skipped_heartbeats : int;
      (** clients whose c2s channel was busy — their ack rides the
          next in-band update instead *)
  stables_delivered : int;
  skipped_stables : int;
      (** clients whose s2c channel was busy — their prune lags until
          a later cycle *)
  snapshots : int;
  last_snapshot_bytes : int;
  meta_peak : int;  (** high-water mark of live metadata seen at cycles *)
}

val stats_fields : stats -> (string * int) list
(** Stable field-name/value pairs, for JSON rendering and reports. *)

(** The mutable per-run operation counter and stats.  One driver per
    engine; the engine consults {!Driver.due} after every applied
    event and brackets each cycle with {!Driver.begin_cycle} /
    {!Driver.end_cycle}. *)
module Driver : sig
  type t

  val create : policy -> t
  val policy : t -> policy

  val note_ops : t -> int -> unit
  (** Count [n] list operations toward the next cycle. *)

  val due : t -> bool
  (** Whether [every_ops] operations have been counted since the last
      cycle began, and no cycle is running.  No clock, no RNG. *)

  val begin_cycle : t -> int
  (** Start a cycle; returns its 1-based index and resets the
      operation counter. *)

  val note_heartbeat : t -> unit
  val note_skipped_heartbeat : t -> unit
  val note_stable : t -> unit
  val note_skipped_stable : t -> unit

  val snapshot_due : t -> bool
  (** Whether the cycle being finished should take a snapshot: every
      [snapshot_every]-th cycle, {e and} only once enough operations
      have passed since the previous snapshot to pay for its size (64
      serialized bytes of budget per operation).  Snapshots cost
      O(document), and the document grows with the edit history, so
      without the amortization a fixed cadence would make per-op
      latency grow with the horizon.  Deterministic: a pure function
      of the op and cycle counts. *)

  val end_cycle :
    t ->
    reclaimed_states:int ->
    reclaimed_log:int ->
    reclaimed_keys:int ->
    snapshot_bytes:int option ->
    meta:int ->
    unit

  val stats : t -> stats
end
