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

let op_id = function
  | Tins { elt; _ } -> elt.Element.id
  | Tdel { id; _ } -> id

type s2c =
  | Forward of treedoc_op
  | Ack

module Crdt = struct
  let name = "treedoc"

  type t = Treedoc_list.t

  type op = treedoc_op

  type nonrec s2c = s2c

  let create = Treedoc_list.create

  let document = Treedoc_list.document

  let size = Treedoc_list.size

  let op_id = op_id

  let insert_op list ~site:_ elt ~pos =
    Tins { elt; at = Treedoc_list.allocate list ~pos }

  let delete_op _ ~site:_ ~id elt = Tdel { id; target = elt.Element.id }

  let integrate list = function
    | Tins { elt; at } -> Treedoc_list.insert list ~elt ~at
    | Tdel { target; _ } -> Treedoc_list.delete list ~target

  let forward op = Forward op

  let ack _ = Ack

  let forwarded = function
    | Forward op -> Some op
    | Ack -> None
end

include Rlist_sim.Relay.Make (Crdt)

let client_tombstones t = Treedoc_list.tombstones (client_list t)
