(** Causal op spans: the offline trace analyzer.

    A span stitches the op-id-keyed trace events back into one
    operation's lifecycle — generation at its origin, every (possibly
    batched) send it rode on, the transform work each delivery charged
    to it, and its application at each replica — stamped with the
    per-channel virtual clock.  Batched payloads join member op ids
    with ['+']; the span builder splits them back apart, so batched
    and unbatched runs yield the same per-op view (a batch's transform
    cost is shared evenly across its members).

    {!summarize} derives the first-class metrics the tentpole asks
    for: convergence lag (generation at the origin to application at
    the {e last} replica), per-replica staleness, per-op transform
    attribution, wire-incident totals and amplification, and a
    retransmission timeline.  Runs over perfect channels never advance
    a virtual clock, so the summary falls back from tick lag to
    trace-position lag and says which unit it used. *)

type span = {
  sp_op : string;
  sp_origin : string option;  (** Generating replica, when observed. *)
  sp_gen_tick : int;  (** [-1] when generation was not observed. *)
  sp_gen_index : int;  (** Trace position of the generate event. *)
  sp_sends : int;  (** Send events carrying this op. *)
  sp_batched_sends : int;  (** Of those, sends sharing a batch payload. *)
  sp_transforms : float;  (** Transform cost attributed to this op. *)
  sp_applies : (string * int * int) list;
      (** (replica, tick, trace position) of the first application at
          each replica, in application order. *)
}

type summary = {
  su_events : int;
  su_ops : int;
  su_replicas : string list;
  su_incomplete : int;  (** Ops generated but never applied anywhere. *)
  su_lag_unit : string;  (** ["ticks"] or ["events"]. *)
  su_lag_p50 : float;
  su_lag_p90 : float;
  su_lag_p99 : float;
  su_lag_max : float;
  su_staleness : (string * float * float) list;
      (** Per replica: mean and max lag from generation to local
          application. *)
  su_transforms_total : int;
  su_tf_p50 : float;
  su_tf_p90 : float;
  su_tf_max : float;
  su_sends : int;
  su_wire : (string * int) list;  (** Wire incidents by action. *)
  su_amplification : float;  (** (sends + retransmits) / sends. *)
  su_timeline : (int * int * int) list;
      (** (bucket start tick, retransmits, drops) — at most 20 buckets. *)
  su_gc_cycles : int;  (** Compaction cycles seen in the trace. *)
  su_gc_reclaimed : int;
      (** Metadata reclaimed across those cycles: state-space nodes +
          truncated log entries + pruned dedup keys (from the
          [gc_end] events). *)
  su_gc_skipped : int;
      (** Busy-channel heartbeats/stables the cycles skipped. *)
}

(** Build the per-op spans of a trace, in first-appearance order. *)
val build : Event.t list -> span list

val summarize : Event.t list -> summary

val pp_summary : Format.formatter -> summary -> unit

val summary_to_json : summary -> Json.t
