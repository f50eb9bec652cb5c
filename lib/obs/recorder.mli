(** The deterministic flight recorder.

    A recorder keeps a fixed-capacity window of {e decisions} — one
    entry per nondeterministic choice a simulation run makes: which
    client generates which intent, which channel delivers next, where
    each batch flush falls, what the fault-injected wire did to each
    transmission, and the tick schedule.  Because every run is fully
    determined by its seeds, the recording does not need to {e drive}
    a replay; the run's configuration (saved in the dump header)
    re-executes bit-identically on its own, and the decision window
    plus the outcome digest are the {e witness} the replay is checked
    against, step by step.

    Recording is designed to be cheap on the heap: {!record} appends
    the decision's dump bytes (the encoding below) to a chunk of
    [min capacity 4096] decisions and keeps nothing else of it, so the
    major GC never scans what a recorder holds and the decision value
    dies young.  A recorder grows with the run, not with its capacity.
    Once the newest [capacity] decisions no longer reach into the
    oldest chunk, that chunk is dropped whole, but {!total} keeps
    counting, so a replay can still verify the retained suffix.
    {!window} decodes the retained bytes; {!encode} copies them.

    The dump format ("JFR1") is a compact binary layout: magic,
    header key/value pairs (run configuration), digest key/value pairs
    (expected final states, verdicts, and statistics), the total
    decision count, and the LEB128-varint-encoded decision window. *)

type outcome =
  | Sent
  | Dropped
  | Partition_dropped
  | Duplicated
  | Delayed of int  (** Reorder jitter, in ticks. *)

type decision =
  | Generate of {
      client : int;
      intent : Rlist_model.Intent.t;
          (** The engine's intent; the recorder, the text and the dump
              spell it with {!Rlist_model.Intent.to_string}. *)
    }
  | Deliver_to_server of int
  | Deliver_to_client of int
  | Deliver_peer of {
      src : int;
      dst : int;
    }
  | Flush of {
      channel : string;
      ops : int;  (** Operations coalesced into this batch payload. *)
    }
  | Transmit of {
      channel : string;
      seq : int;
      outcome : outcome;
    }
  | Retransmit of {
      channel : string;
      seq : int;
      attempts : int;
    }
  | Ack of {
      channel : string;
      seq : int;
      dropped : bool;
    }
  | Tick of int  (** Engine clock after advancing every channel. *)
  | Gc of {
      cycle : int;
      trigger : string;  (** The fired trigger, e.g. ["ops=64"]. *)
    }
      (** A compaction cycle started here.  GC cycles are themselves
          deterministic functions of the simulation state, so the
          entry carries no outcome — it exists so the replayed
          decision stream (and hence [jupiter_sim replay]) stays
          bit-identical when GC is enabled. *)

type t

val default_capacity : int

val create : ?capacity:int -> unit -> t

val record : t -> decision -> unit

(** Decisions ever recorded, including ones the window has dropped. *)
val total : t -> int

(** Whether old decisions have left the window ([total > capacity]).
    A wrapped recording still replays — only the witness comparison is
    restricted to the retained suffix — but schedule extraction for
    the shrinker needs the full window. *)
val wrapped : t -> bool

(** The retained decisions, oldest first. *)
val window : t -> decision list

val decision_to_string : decision -> string

(** [encode ~header ~digest t] renders the full binary recording. *)
val encode :
  header:(string * string) list -> digest:(string * string) list -> t -> string

(** [dump ~header ~digest t path] writes the binary recording to
    [path]. *)
val dump :
  header:(string * string) list ->
  digest:(string * string) list ->
  t ->
  string ->
  unit

(** A parsed recording. *)
type recording = {
  header : (string * string) list;
  digest : (string * string) list;
  r_total : int;
  r_window : decision list;
}

(** Raised by {!decode}/{!load} on malformed input, with a reason. *)
exception Corrupt of string

(** Parse a binary recording; each intent is read back with
    {!Rlist_model.Intent.of_string}.
    @raise Corrupt on any malformed input, an intent text that spells
    no intent included, and never raises anything else. *)
val decode : string -> recording

(** [is_recording path] — whether the file starts with the "JFR1"
    magic (how the CLI tells a recording from a text schedule). *)
val is_recording : string -> bool

val load : string -> recording
