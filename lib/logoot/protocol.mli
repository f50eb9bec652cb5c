(** Logoot as a client/server protocol for the simulation engine: the
    CRDT half of {!Rlist_sim.Relay}, whose server is a pure relay (no
    transformation, no serialization logic beyond FIFO fan-out) and
    whose originator gets an acknowledgement to keep schedules aligned
    with the other protocols.

    Like RGA, Logoot satisfies the {e strong} list specification: the
    position order is a total order over all elements, fixed at
    insertion time, and every returned list is sorted by it. *)

open Rlist_model

type logoot_op =
  | Lins of {
      elt : Element.t;
      at : Position.t;
    }
  | Ldel of {
      id : Op_id.t;  (** The delete operation's own identity. *)
      target : Op_id.t;
    }

val op_id : logoot_op -> Op_id.t

type s2c =
  | Forward of logoot_op
  | Ack

include Rlist_sim.Protocol_intf.PROTOCOL with type s2c := s2c
