open Rlist_model
open Rlist_ot

let name = "css"

let server_is_replica = true

type c2s = {
  op : Op.t;
  ctx : Context.t;
}

type s2c = {
  op : Op.t;
  ctx : Context.t;
  serial : int;
  origin : int;
}

type replica = {
  space : State_space.t;
  serials : int Op_id.Table.t;
  mutable doc : Document.t;
}

type client = {
  id : int;
  replica : replica;
  mutable next_seq : int;
}

type server = {
  nclients : int;
  server_replica : replica;
  mutable next_serial : int;
}

let make_replica ~fastpath ~initial ~own_client =
  let serials = Op_id.Table.create 64 in
  let key_of = Order_key.of_serials ~who:"CSS replica" ~own_client serials in
  let space = State_space.create ~fastpath ~key_of () in
  { space; serials; doc = initial }

(* Uniform processing (Section 6.2) of a run of operations: match each
   context, extend the state-space per Algorithm 1 — a contiguous run
   walks the ladder once (State_space.add_run) — and execute the
   transformed forms in order.  Each operation's final node sits on
   the previous one, so the space itself records the replica's path
   (State_space.final_path). *)
let process replica ocs =
  List.iter
    (fun form -> replica.doc <- Op.apply form replica.doc)
    (State_space.add_run replica.space ocs)

let create_client ~fastpath ~nclients:_ ~id ~initial =
  if id < 1 then invalid_arg "CSS: client identifiers start at 1";
  { id; replica = make_replica ~fastpath ~initial ~own_client:id; next_seq = 1 }

let create_server ~fastpath ~nclients ~initial =
  {
    nclients;
    (* The server has no own operations; [own_client = 0] makes every
       unknown identifier an error. *)
    server_replica = make_replica ~fastpath ~initial ~own_client:0;
    next_serial = 1;
  }

let client_generate t intent =
  let r = t.replica in
  let { Rlist_sim.Intent_resolver.outcome; op } =
    Rlist_sim.Intent_resolver.resolve ~client:t.id ~seq:t.next_seq ~doc:r.doc
      intent
  in
  match op with
  | None -> outcome, None
  | Some op ->
    t.next_seq <- t.next_seq + 1;
    let ctx = State_space.final r.space in
    process r [ Context.with_context op ~ctx ];
    outcome, Some { op; ctx }

(* Stamp each operation with the next serial, in order, and record it
   (so the ordering keys are final before any insertion), then walk
   the batch through Algorithm 1's ladder.  [narrow] sees every serial
   stamped so far. *)
let stamp t ~narrow batch =
  let r = t.server_replica in
  let stamped =
    List.map
      (fun ({ op; ctx } : c2s) ->
        let serial = t.next_serial in
        t.next_serial <- serial + 1;
        Op_id.Table.replace r.serials op.Op.id serial;
        op, narrow ctx, serial)
      batch
  in
  process r
    (List.map (fun (op, ctx, _) -> Context.with_context op ~ctx) stamped);
  stamped

let server_receive_batch t ~from batch =
  List.concat_map
    (fun (op, ctx, serial) ->
      List.init t.nclients (fun i -> i + 1, { op; ctx; serial; origin = from }))
    (stamp t ~narrow:Fun.id batch)

let server_receive t ~from msg = server_receive_batch t ~from [ msg ]

let client_receive_batch t batch =
  let r = t.replica in
  (* All serials first: a batch may interleave acknowledgements of own
     operations with foreign operations, and the foreign ones must see
     every serial the batch carries before insertion. *)
  List.iter
    (fun ({ op; serial; _ } : s2c) ->
      Op_id.Table.replace r.serials op.Op.id serial)
    batch;
  (* An acknowledgement of an own operation needs no processing — it
     was processed at generation time, and recording its serial above
     silently turns its pending transition into a serialized one,
     keeping its relative order (cf. Order_key).  Acknowledgements also
     break run contiguity for the foreign operations around them (the
     context cardinality jumps), which add_run's segmentation
     handles. *)
  process r
    (List.filter_map
       (fun ({ op; ctx; origin; _ } : s2c) ->
         if origin <> t.id then Some (Context.with_context op ~ctx) else None)
       batch)

let client_receive t msg = client_receive_batch t [ msg ]

let c2s_op_id ({ op; _ } : c2s) = Some op.Op.id

let s2c_op_id ({ op; _ } : s2c) = Some op.Op.id

let client_replica t = t.replica

let server_replica t = t.server_replica

let space r = r.space

let serialized r id = Op_id.Table.mem r.serials id

let forget r id = Op_id.Table.remove r.serials id

let client_document t = t.replica.doc

let server_document t = t.server_replica.doc

let client_visible t = State_space.final t.replica.space

let server_visible t = State_space.final t.server_replica.space

let client_ot_count t = State_space.ot_count t.replica.space

let server_ot_count t = State_space.ot_count t.server_replica.space

let client_metadata_size t = State_space.size t.replica.space

let server_metadata_size t = State_space.size t.server_replica.space

let client_space t = t.replica.space

let server_space t = t.server_replica.space

let client_set_space_observer t notify =
  State_space.set_observer t.replica.space notify

let server_set_space_observer t notify =
  State_space.set_observer t.server_replica.space notify

let client_path t = State_space.final_path t.replica.space

let server_path t = State_space.final_path t.server_replica.space

(* [serials] is an unordered listing: its one reader,
   Snapshot.client_to_string, sorts it before writing. *)
let client_state t =
  let serials =
    (Op_id.Table.fold (fun id s acc -> (id, s) :: acc) t.replica.serials []
     [@lint.allow "hashtbl-iter"])
  in
  t.id, t.next_seq, t.replica.doc, serials

let rebuild_client ~id ~next_seq ~doc ~serials ~space ~root ~final =
  if id < 1 then invalid_arg "CSS: client identifiers start at 1";
  let table = Op_id.Table.create 64 in
  List.iter (fun (op_id, serial) -> Op_id.Table.replace table op_id serial)
    serials;
  let key_of = Order_key.of_serials ~who:"CSS rebuild" ~own_client:id table in
  let space = State_space.of_raw ~key_of ~root ~final space in
  { id; replica = { space; serials = table; doc }; next_seq }

(* No ack-driven pruning machinery; GC-enabled runs degrade to
   shim-level pruning only. *)
let gc_support = None
