open Rlist_model
open Rlist_ot

let name = "css-p2p"

type message =
  | Op_msg of {
      op : Op.t;
      ctx : Context.t;
      ts : int;
    }
  | Clock of int

type buffered = {
  b_op : Op.t;
  b_ctx : Context.t;
  b_ts : int;
  b_origin : int;
}

type peer = {
  id : int;
  npeers : int;
  space : State_space.t;
  order : (int * int) Op_id.Table.t;  (* op id -> (timestamp, origin) *)
  mutable doc : Document.t;
  mutable next_seq : int;
  mutable clock : int;
  heard : int array;  (* highest clock heard per peer *)
  mutable pending : buffered list;  (* sorted by (ts, origin) *)
}

(* The total order (ts, origin) packed into a single serialized key.
   Peer ids are small and positive, so the packing is injective and
   order-preserving. *)
let packed_key ~npeers (ts, origin) = (ts * (npeers + 1)) + origin

let create_peer ~fastpath ~npeers ~id ~initial =
  if id < 1 then invalid_arg "css-p2p: peer identifiers start at 1";
  let order = Op_id.Table.create 64 in
  let key_of op_id =
    match Op_id.Table.find_opt order op_id with
    | Some stamp -> Order_key.Serialized (packed_key ~npeers stamp)
    | None ->
      invalid_arg
        (Format.asprintf "css-p2p peer %d: no timestamp for %a" id Op_id.pp
           op_id)
  in
  {
    id;
    npeers;
    space = State_space.create ~fastpath ~key_of ();
    order;
    doc = initial;
    next_seq = 1;
    clock = 0;
    heard = Array.make (npeers + 1) 0;
    pending = [];
  }

let process t op ctx =
  let form = State_space.add_op t.space (Context.with_context op ~ctx) in
  t.doc <- Op.apply form t.doc

(* An operation is stable once every other peer's heard clock has
   reached its timestamp: anything they send later is stamped strictly
   higher, hence ordered after. *)
let stable t b =
  let ok = ref true in
  for q = 1 to t.npeers do
    if q <> t.id && q <> b.b_origin && t.heard.(q) < b.b_ts then ok := false
  done;
  (* The origin's own later operations are ordered after by FIFO and
     strictly increasing clocks. *)
  !ok

let rec integrate_stable t =
  match t.pending with
  | b :: rest when stable t b ->
    t.pending <- rest;
    process t b.b_op b.b_ctx;
    integrate_stable t
  | _ -> ()

let buffer_compare a b =
  match Int.compare a.b_ts b.b_ts with
  | 0 -> Int.compare a.b_origin b.b_origin
  | c -> c

let insert_buffered t b =
  let rec insert = function
    | [] -> [ b ]
    | x :: rest as all ->
      if buffer_compare b x < 0 then b :: all else x :: insert rest
  in
  t.pending <- insert t.pending

let generate t intent =
  let { Rlist_sim.Intent_resolver.outcome; op } =
    Rlist_sim.Intent_resolver.resolve ~client:t.id ~seq:t.next_seq ~doc:t.doc
      intent
  in
  match op with
  | None -> outcome, None
  | Some op ->
    t.next_seq <- t.next_seq + 1;
    t.clock <- t.clock + 1;
    let ts = t.clock in
    t.heard.(t.id) <- ts;
    Op_id.Table.replace t.order op.Op.id (ts, t.id);
    let ctx = State_space.final t.space in
    process t op ctx;
    outcome, Some (Op_msg { op; ctx; ts })

(* Integration is per operation, so a batch is handled message by
   message, reactions collected in order. *)
let receive t ~from messages =
  List.filter_map
    (function
      | Clock c ->
        t.heard.(from) <- max t.heard.(from) c;
        t.clock <- max t.clock c;
        integrate_stable t;
        None
      | Op_msg { op; ctx; ts } ->
        t.heard.(from) <- max t.heard.(from) ts;
        t.clock <- max t.clock ts + 1;
        Op_id.Table.replace t.order op.Op.id (ts, from);
        insert_buffered t { b_op = op; b_ctx = ctx; b_ts = ts; b_origin = from };
        integrate_stable t;
        (* Announce the advanced clock so the others' stability
           frontiers move past [ts]; Clock messages trigger no
           reactions, so the exchange quiesces. *)
        Some (Clock t.clock))
    messages

let message_op_id = function
  | Op_msg { op; _ } -> Some op.Op.id
  | Clock _ -> None

let document t = t.doc

let visible t = State_space.final t.space

let ot_count t = State_space.ot_count t.space

let metadata_size t = State_space.size t.space + List.length t.pending

let buffered t = List.length t.pending

let space t = t.space
