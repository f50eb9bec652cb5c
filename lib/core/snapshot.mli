(** Snapshot and restore of CSS clients — crash recovery.

    A client's entire protocol state (document, sequence counter,
    serial table, and the full n-ary ordered state-space with its
    transition forms and ordering) round-trips through a line-oriented
    text format.  A restored client is observationally identical to
    the original: same document, same visible set, and a structurally
    equal state-space, so it continues the session as if nothing
    happened (the test suite feeds both the original and the restored
    client the same messages and compares).

    Pending (unacknowledged) operations are preserved: they are the
    client's own, and their order keys are reconstructed from their
    sequence numbers. *)

val client_to_string : Protocol.client -> string

(** [Error] on malformed input, naming the offending line when one is
    at fault; never raises. *)
val client_of_string : string -> (Protocol.client, string) result

val save_client : path:string -> Protocol.client -> unit

(** As {!client_of_string}; an unreadable file is an [Error] too. *)
val load_client : path:string -> (Protocol.client, string) result

(** A stable snapshot — the Raft-style compaction artifact the GC
    driver emits: the document at the acked-stable frontier together
    with the serial it covers.  Everything at or below [at_serial] has
    been executed by every replica, so the snapshot plus the retained
    log suffix reconstructs any replica's state; no state-space ladder
    needs to be serialized. *)
type stable = {
  at_serial : int;
  stable_doc : Rlist_model.Document.t;
}

val stable_to_string : stable -> string

(** [Error] on malformed input, as {!client_of_string}. *)
val stable_of_string : string -> (stable, string) result
