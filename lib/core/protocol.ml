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
  mutable path : State_space.state list;  (* reversed *)
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
  { space; serials; doc = initial; path = [ State_space.initial_state ] }

(* Uniform processing (Section 6.2): match the context, extend the
   state-space per Algorithm 1, and execute the transformed form. *)
let process replica (oc : Context.op_in_context) =
  let form = State_space.add_op replica.space oc in
  replica.doc <- Op.apply form replica.doc;
  replica.path <- State_space.final replica.space :: replica.path

let create_client ~fastpath ~nclients ~id ~initial =
  ignore nclients;
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
    process r (Context.with_context op ~ctx);
    outcome, Some { op; ctx }

let server_receive t ~from ({ op; ctx } : c2s) =
  let serial = t.next_serial in
  t.next_serial <- serial + 1;
  Op_id.Table.replace t.server_replica.serials op.Op.id serial;
  process t.server_replica (Context.with_context op ~ctx);
  List.init t.nclients (fun i -> i + 1, { op; ctx; serial; origin = from })

let client_receive t ({ op; ctx; serial; origin } : s2c) =
  let r = t.replica in
  Op_id.Table.replace r.serials op.Op.id serial;
  if origin <> t.id then process r (Context.with_context op ~ctx)
(* else: acknowledgement of an own operation — already processed at
   generation time; recording the serial above is all that is needed
   (the pending transition silently becomes serialized, keeping its
   relative order, cf. Order_key). *)

(* Batched processing: record every serial first (so the ordering keys
   are final before any insertion), then walk the whole run through
   Algorithm 1's ladder with a single leftmost-path lookup
   (State_space.add_run), then execute the transformed forms in
   order. *)
let process_run replica ocs =
  let forms = State_space.add_run replica.space ocs in
  List.iter (fun form -> replica.doc <- Op.apply form replica.doc) forms;
  (* Reconstruct the intermediate final states the one-by-one path
     would have recorded: each operation grows the final state by its
     own identifier. *)
  let rec record ctx = function
    | [] -> ()
    | (oc : Context.op_in_context) :: rest ->
      let ctx = Op_id.Set.add oc.Context.op.Op.id ctx in
      replica.path <- ctx :: replica.path;
      record ctx rest
  in
  (match replica.path with
  | latest :: _ -> record latest ocs
  | [] -> assert false)

let server_receive_batch t ~from batch =
  let stamped =
    List.map
      (fun ({ op; ctx } : c2s) ->
        let serial = t.next_serial in
        t.next_serial <- serial + 1;
        Op_id.Table.replace t.server_replica.serials op.Op.id serial;
        op, ctx, serial)
      batch
  in
  process_run t.server_replica
    (List.map (fun (op, ctx, _) -> Context.with_context op ~ctx) stamped);
  List.concat_map
    (fun (op, ctx, serial) ->
      List.init t.nclients (fun i -> i + 1, { op; ctx; serial; origin = from }))
    stamped

let client_receive_batch t batch =
  let r = t.replica in
  (* All serials first: a batch may interleave acknowledgements of own
     operations with foreign operations, and the foreign ones must see
     every serial the batch carries before insertion. *)
  List.iter
    (fun ({ op; serial; _ } : s2c) ->
      Op_id.Table.replace r.serials op.Op.id serial)
    batch;
  (* Own acknowledgements need no processing; they also break run
     contiguity for the foreign operations around them (the context
     cardinality jumps), which add_run's segmentation handles. *)
  let foreign =
    List.filter_map
      (fun ({ op; ctx; origin; _ } : s2c) ->
        if origin <> t.id then Some (Context.with_context op ~ctx) else None)
      batch
  in
  match foreign with [] -> () | _ :: _ -> process_run r foreign

let c2s_op_id ({ op; _ } : c2s) = Some op.Op.id

let s2c_op_id ({ op; _ } : s2c) = Some op.Op.id

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

let client_path t = List.rev t.replica.path

let server_path t = List.rev t.server_replica.path

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
  {
    id;
    replica = { space; serials = table; doc; path = [ final ] };
    next_seq;
  }

(* No ack-driven pruning machinery; GC-enabled runs degrade to
   shim-level pruning only. *)
let gc_support = None
