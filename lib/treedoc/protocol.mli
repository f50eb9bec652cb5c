(** TreeDoc as a client/server protocol for the simulation engine: the
    CRDT half of {!Rlist_sim.Relay}, a pure-relay server as for RGA
    and Logoot, with acknowledgement messages keeping schedules
    aligned. *)

open Rlist_model

type treedoc_op =
  | Tins of {
      elt : Element.t;
      at : Tree_path.t;
    }
  | Tdel of {
      id : Op_id.t;
      target : Op_id.t;
    }

val op_id : treedoc_op -> Op_id.t

type s2c =
  | Forward of treedoc_op
  | Ack

include Rlist_sim.Protocol_intf.PROTOCOL with type s2c := s2c

val client_tombstones : client -> int
