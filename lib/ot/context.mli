(** Operation contexts (paper, Definition 4.6).

    The context of an operation is the replica state — the set of
    original operations — on which it is defined.  An original
    operation's context is the state it was generated from; each
    transformation [o{ox}] extends the context with [org(ox)].

    Contexts are what the Jupiter protocols match on: when a replica
    meets an operation it "searches the state-space for the state that
    matches the context" (Section 6.2). *)

open Rlist_model

type t = Op_id.Set.t

val empty : t

(** [extend ctx op] is the context after processing [op] (its original
    form joins the context). *)
val extend : t -> Op.t -> t

val mem : t -> Op.t -> bool

val equal : t -> t -> bool

val subset : t -> t -> bool

(** A context-carrying operation, as shipped between replicas in the
    CSS protocol: the {e original} form of the operation together with
    the state it is defined on. *)
type op_in_context = {
  op : Op.t;
  ctx : t;
}

val with_context : Op.t -> ctx:t -> op_in_context

val pp : Format.formatter -> t -> unit
