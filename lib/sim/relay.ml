open Rlist_model

module Make (L : Protocol_intf.CRDT) = struct
  let name = L.name

  let server_is_replica = true

  (* Keep one field: [Mesh.batch_bytes] charges a message's heap
     words, which the byte pins fix. *)
  type c2s = { op : L.op }

  type client = {
    id : int;
    list : L.t;
    mutable next_seq : int;
    mutable visible : Op_id.Set.t;
  }

  type server = {
    nclients : int;
    slist : L.t;
    mutable svisible : Op_id.Set.t;
  }

  let create_client ~fastpath:_ ~nclients:_ ~id ~initial =
    let list = L.create ~site:id ~initial in
    { id; list; next_seq = 1; visible = Op_id.Set.empty }

  let create_server ~fastpath:_ ~nclients ~initial =
    { nclients; slist = L.create ~site:0 ~initial; svisible = Op_id.Set.empty }

  let client_generate t intent =
    let { Intent_resolver.outcome; op } =
      Intent_resolver.resolve ~client:t.id ~seq:t.next_seq
        ~doc:(L.document t.list) intent
    in
    match op with
    | None -> outcome, None
    | Some { Rlist_ot.Op.id; action } ->
      t.next_seq <- t.next_seq + 1;
      let op =
        match action with
        | Rlist_ot.Op.Ins (elt, pos) -> L.insert_op t.list ~site:t.id elt ~pos
        | Rlist_ot.Op.Del (elt, _) -> L.delete_op t.list ~site:t.id ~id elt
        | Rlist_ot.Op.Nop -> assert false (* the resolver mints no Nop *)
      in
      L.integrate t.list op;
      t.visible <- Op_id.Set.add id t.visible;
      outcome, Some { op }

  let server_receive t ~from { op } =
    L.integrate t.slist op;
    t.svisible <- Op_id.Set.add (L.op_id op) t.svisible;
    List.init t.nclients (fun i ->
        let dest = i + 1 in
        dest, if Int.equal dest from then L.ack op else L.forward op)

  let client_receive t msg =
    match L.forwarded msg with
    | None -> ()
    | Some op ->
      L.integrate t.list op;
      t.visible <- Op_id.Set.add (L.op_id op) t.visible

  let server_receive_batch t ~from batch =
    List.concat_map (server_receive t ~from) batch

  let client_receive_batch t batch = List.iter (client_receive t) batch

  let c2s_op_id { op } = Some (L.op_id op)

  let s2c_op_id msg = Option.map L.op_id (L.forwarded msg)

  let client_document t = L.document t.list

  let server_document t = L.document t.slist

  let client_visible t = t.visible

  let server_visible t = t.svisible

  let client_ot_count _ = 0

  let server_ot_count _ = 0

  let client_metadata_size t = L.size t.list

  let server_metadata_size t = L.size t.slist

  let gc_support = None

  let client_list t = t.list
end
