(** Deterministic fault models for the unreliable-channel layer.

    A [spec] describes how one simulated network misbehaves.  All
    randomness is drawn from the transport's own seeded RNG, so a run
    is reproducible from its seed; the partition schedule is purely a
    function of the virtual clock. *)

type spec = {
  drop : float;  (** Probability a transmission is lost. *)
  duplicate : float;  (** Probability a transmission arrives twice. *)
  reorder : float;
      (** Probability a transmission is jittered behind later ones. *)
  delay : int;  (** Maximum extra ticks of jitter (>= 1). *)
  partition_period : int;
      (** Every link is severed cyclically with this period in ticks;
          [0] disables partitions. *)
  partition_down : int;
      (** Ticks of down-time at the start of each period
          (< [partition_period]). *)
}

(** The perfect network: no faults at all. *)
val none : spec

(** Whether the link is partitioned at the given virtual time. *)
val down_at : spec -> tick:int -> bool

(** Named built-in models: [none], [drop], [dup], [reorder],
    [partition], [chaos], [heavy-loss]. *)
val presets : (string * spec) list

val preset : string -> spec option

(** Parse a preset name or a comma-separated field list
    ([drop=0.3,dup=0.1,reorder=0.2,delay=4,partition=60:20]). *)
val of_string : string -> (spec, string) result

(** The field syntax (["none"] when nothing is set), with
    probabilities printed in as few digits as read back exactly, so
    [of_string (to_string s) = Ok s] for every valid [s]. *)
val to_string : spec -> string

val validate : spec -> (spec, string) result

val pp : Format.formatter -> spec -> unit
