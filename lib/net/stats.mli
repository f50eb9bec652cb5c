(** Aggregate counters for one simulated network (all its channels).

    The sender-side counters distinguish logical {e payloads} (what the
    application asked to send) from physical {e transmissions}
    (payloads plus retransmissions); their ratio is the message
    amplification the fault model costs.  The receiver-side counters
    record what the reliability shim absorbed: suppressed duplicates,
    resequenced out-of-order arrivals, and — with the shim off — the
    FIFO-exactly-once contract violations that reached the
    application. *)

type t = {
  mutable payloads : int;  (** Logical sends (messages). *)
  mutable transmissions : int;  (** Physical sends incl. retransmits. *)
  mutable op_payloads : int;
      (** Operations asked to be sent: each logical send weighted by
          the number of operations the message carries
          ({!Transport.create}'s [weight]).  Equal to [payloads] on
          unweighted channels. *)
  mutable op_transmissions : int;
      (** Operations physically sent, incl. retransmissions of whole
          batches. *)
  mutable dropped : int;  (** Lost by the fault model. *)
  mutable duplicated : int;  (** Extra copies created by the network. *)
  mutable reordered : int;  (** Transmissions jittered out of order. *)
  mutable partition_drops : int;  (** Lost to a severed link. *)
  mutable partitions_healed : int;  (** Down-to-up transitions. *)
  mutable retransmits : int;  (** Shim timeout-driven resends. *)
  mutable dup_dropped : int;  (** Duplicates the shim suppressed. *)
  mutable opid_dup_dropped : int;
      (** Duplicates caught by the operation-identifier guard. *)
  mutable out_of_order : int;  (** Arrivals the shim resequenced. *)
  mutable acks_sent : int;
  mutable acks_dropped : int;
  mutable delivered : int;  (** Payloads handed to the application. *)
  mutable contract_violations : int;
      (** Deliveries violating FIFO-exactly-once (shim off). *)
  mutable ticks : int;  (** Virtual-clock advances. *)
}

val create : unit -> t

(** Amplification, in {e operations}: [op_transmissions /
    op_payloads] ([1.0] when idle).  Counting ops rather than messages
    keeps the figure comparable with and without engine-level
    batching — a retransmitted batch of [k] operations costs [k], just
    as [k] retransmitted singletons would. *)
val amplification : t -> float

(** The counters as ordered (name, value) pairs. *)
val fields : t -> (string * int) list

(** Copy the counters into a metrics registry under the [net.] prefix
    (plus the [net.amplification] gauge).  Cumulative — publish once
    per run. *)
val publish : t -> Rlist_obs.Metrics.t -> unit

(** The counters, then [amplification], as one JSON object. *)
val to_json : t -> Rlist_obs.Json.t

val pp : Format.formatter -> t -> unit
