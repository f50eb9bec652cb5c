open Rlist_model

type rga_op =
  | Rins of {
      elt : Element.t;
      after : Op_id.t option;
      ts : Rga_list.timestamp;
    }
  | Rdel of {
      id : Op_id.t;
      target : Op_id.t;
      ts : Rga_list.timestamp;
    }

let op_id = function
  | Rins { elt; _ } -> elt.Element.id
  | Rdel { id; _ } -> id

let op_ts = function
  | Rins { ts; _ } | Rdel { ts; _ } -> ts

type s2c =
  | Forward of rga_op
  | Ack of Rga_list.timestamp
      (* The relay ignores the payload: the originator's Lamport clock
         already covers its own operation. *)

module Crdt = struct
  let name = "rga"

  type t = Rga_list.t

  type op = rga_op

  type nonrec s2c = s2c

  let create ~site:_ ~initial = Rga_list.create ~initial

  let document = Rga_list.document

  let size = Rga_list.size

  let op_id = op_id

  let insert_op rga ~site elt ~pos =
    let after = Rga_list.anchor_of rga ~pos in
    Rins { elt; after; ts = Rga_list.next_timestamp rga ~client:site }

  let delete_op rga ~site ~id elt =
    let ts = Rga_list.next_timestamp rga ~client:site in
    Rdel { id; target = elt.Element.id; ts }

  let integrate rga op =
    Rga_list.observe_timestamp rga (op_ts op);
    match op with
    | Rins { elt; after; ts } -> Rga_list.insert rga ~elt ~after ~ts
    | Rdel { target; _ } -> Rga_list.delete rga ~target

  let forward op = Forward op

  let ack op = Ack (op_ts op)

  let forwarded = function
    | Forward op -> Some op
    | Ack _ -> None
end

include Rlist_sim.Relay.Make (Crdt)

let client_tombstones t = Rga_list.tombstones (client_list t)
