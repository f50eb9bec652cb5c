open Rlist_model

type logoot_op =
  | Lins of {
      elt : Element.t;
      at : Position.t;
    }
  | Ldel of {
      id : Op_id.t;
      target : Op_id.t;
    }

let op_id = function
  | Lins { elt; _ } -> elt.Element.id
  | Ldel { id; _ } -> id

type s2c =
  | Forward of logoot_op
  | Ack

module Crdt = struct
  let name = "logoot"

  type t = Logoot_list.t

  type op = logoot_op

  type nonrec s2c = s2c

  (* The RNG only drives digit choices inside freshly allocated
     positions — determinism across replicas is irrelevant because
     allocations happen at one site and travel by message. *)
  let create ~site ~initial =
    Logoot_list.create ~rng:(Random.State.make [| 0x109007; site |]) ~site
      ~initial

  let document = Logoot_list.document

  let size = Logoot_list.size

  let op_id = op_id

  let insert_op list ~site:_ elt ~pos =
    Lins { elt; at = Logoot_list.allocate list ~pos }

  let delete_op _ ~site:_ ~id elt = Ldel { id; target = elt.Element.id }

  let integrate list = function
    | Lins { elt; at } -> Logoot_list.insert list ~elt ~at
    | Ldel { target; _ } -> Logoot_list.delete list ~target

  let forward op = Forward op

  let ack _ = Ack

  let forwarded = function
    | Forward op -> Some op
    | Ack -> None
end

include Rlist_sim.Relay.Make (Crdt)
