(** Do events: the observable behaviour of a replica towards its user.

    A [do(op, w)] event records a user invoking [op] and immediately
    receiving the updated list [w] (paper, Section 2.1.1).  An
    abstract execution is a sequence of do events plus a visibility
    relation (Definition 2.9); we record visibility extensionally as
    the set of update-operation identifiers visible to each event,
    which is how the protocols actually expose it (the replica state,
    Definition 4.5). *)

open Rlist_model

type operation =
  | Do_ins of Element.t * int  (** The user inserted this element here. *)
  | Do_del of Element.t * int  (** The user deleted this element from here. *)
  | Do_read

type t = {
  eid : int;  (** Position of the event in the history [H]. *)
  replica : Replica_id.t;  (** Replica at which the event occurred. *)
  op : operation;
  op_id : Op_id.t option;  (** Identifier of the generated update;
                               [None] for reads. *)
  result : Document.t;  (** The returned list [w]. *)
  visible : Op_id.Set.t;  (** Identifiers of the update operations
                              visible to this event.  For an update
                              event this includes its own
                              identifier. *)
}

val make :
  eid:int ->
  replica:Replica_id.t ->
  op:operation ->
  op_id:Op_id.t option ->
  result:Document.t ->
  visible:Op_id.Set.t ->
  t

val is_update : t -> bool

val is_read : t -> bool

val pp : Format.formatter -> t -> unit
