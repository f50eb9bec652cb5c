(** RGA as a client/server protocol, pluggable into the simulation
    engine alongside the Jupiter protocols: the CRDT half of
    {!Rlist_sim.Relay}, which owns the server's in-order relay and the
    originator's acknowledgement (paper, Section 9). *)

open Rlist_model

type rga_op =
  | Rins of {
      elt : Element.t;
      after : Op_id.t option;  (** Anchor element, [None] for head. *)
      ts : Rga_list.timestamp;
    }
  | Rdel of {
      id : Op_id.t;  (** The delete operation's own identity. *)
      target : Op_id.t;  (** Element to delete. *)
      ts : Rga_list.timestamp;
    }

val op_id : rga_op -> Op_id.t

type s2c =
  | Forward of rga_op
  | Ack of Rga_list.timestamp

include Rlist_sim.Protocol_intf.PROTOCOL with type s2c := s2c

(** Tombstone count at a client, for the metadata experiments. *)
val client_tombstones : client -> int
