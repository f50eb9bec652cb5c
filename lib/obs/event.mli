(** Typed structured trace events.

    One constructor per instrumented point of the replication stack:
    operation generation, message send/delivery, wire-level fault
    incidents, operational transformation, document application, and
    state-space growth.  Events carry only plain values (replica
    labels, rendered operation identifiers, queue depths, byte
    estimates, virtual-clock ticks) so this module depends on nothing
    and every layer above can emit into it.

    The JSONL rendering ({!to_jsonl}) is one self-contained JSON
    object per event — the format consumed by [jupiter_sim trace] and
    [jupiter_sim report]; {!of_jsonl} decodes it back, which is what
    lets the offline analyzer consume a trace file without replaying
    the run that produced it. *)

(** A replica label: ["server"], ["c3"], ["p2"], ... *)
type replica = string

type t =
  | Generate of {
      replica : replica;
      op_id : string option;  (** [None] for reads. *)
      intent : string;  (** ["ins"], ["del"], or ["read"]. *)
      queue : int;  (** Outbound channel depth after enqueueing. *)
      tick : int;  (** Virtual clock at the origin replica. *)
    }
  | Send of {
      src : replica;
      dst : replica;
      op_id : string option;
      bytes : int;  (** Estimated payload size of the message. *)
      queue : int;  (** Destination channel depth after enqueueing. *)
      tick : int;
    }
  | Deliver of {
      replica : replica;  (** The receiving replica. *)
      src : replica;
      op_id : string option;
      transforms : int;  (** Primitive OT calls this delivery caused. *)
      queue : int;  (** Source channel depth after dequeueing. *)
      tick : int;
    }
  | Transform of {
      replica : replica;
      count : int;  (** Primitive OT calls in this batch. *)
    }
  | Apply of {
      replica : replica;
      op_id : string option;
      doc_len : int;  (** Document length after application. *)
      tick : int;
    }
  | Wire of {
      channel : string;  (** Channel label, e.g. ["c1->server"]. *)
      action : string;
          (** One of ["drop"], ["partition_drop"], ["dup"], ["delay"],
              ["retransmit"], ["ack"], ["ack_drop"], ["dup_drop"],
              ["ooo"]. *)
      wseq : int;  (** The shim sequence number involved. *)
      info : int;
          (** Action-specific detail: jitter ticks for ["delay"],
              attempt count for ["retransmit"], otherwise [0]. *)
      tick : int;  (** The channel's virtual clock. *)
    }
  | State_space_grow of {
      replica : replica;
      level : int;  (** Operations in the final state after growth. *)
      states : int;  (** Total states after growth. *)
      transitions : int;  (** Total transitions after growth. *)
    }
  | Span of {
      name : string;
      dur_ns : float;
    }
  | Gc_begin of {
      cycle : int;  (** 1-based compaction-cycle index. *)
      trigger : string;  (** The fired trigger, e.g. ["ops=64"]. *)
      meta : int;  (** Total live metadata when the cycle started. *)
      tick : int;
    }
  | Gc_end of {
      cycle : int;
      reclaimed_states : int;  (** State-space nodes freed. *)
      reclaimed_log : int;  (** Serialization-log entries truncated. *)
      reclaimed_keys : int;  (** Shim dedup keys pruned. *)
      meta : int;  (** Total live metadata after the cycle. *)
      snapshot_bytes : int;  (** [0] when no snapshot was taken. *)
      skipped : int;
          (** Busy channels the cycle declined to touch (their
              pruning lags until a later cycle). *)
      tick : int;
    }

(** The event's type tag as it appears in the JSON ([generate],
    [send], [deliver], [transform], [apply], [wire],
    [state_space_grow], [span], [gc_begin], [gc_end]). *)
val kind : t -> string

(** The operation identifier the event concerns, when it carries one.
    Batched sends/delivers join member ids with ['+']. *)
val op_id : t -> string option

(** The virtual-clock stamp, for the event kinds that carry one. *)
val tick : t -> int option

(** [to_jsonl ~seq e] renders one {!Json} object (no trailing
    newline); [seq] is the event's position in the trace. *)
val to_jsonl : seq:int -> t -> string

(** [of_jsonl line] decodes one trace line back into its sequence
    number and event.  Returns [None] on anything that is not a trace
    event (summary lines, blank lines, unknown types, malformed JSON,
    fields of the wrong type) — the analyzer skips those. *)
val of_jsonl : string -> (int * t) option

val pp : Format.formatter -> t -> unit
