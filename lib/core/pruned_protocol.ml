open Rlist_model
open Rlist_ot

let name = "css-pruned"

let server_is_replica = true

type c2s =
  | Update of {
      op : Op.t;
      ctx : Context.t;
      acked : int;
    }
  | Heartbeat of { acked : int }

type s2c =
  | Deliver of {
      op : Op.t;
      ctx : Context.t;
      serial : int;
      origin : int;
      stable : int;
      base : int;
    }
  | Stable of { stable : int }

(* The pruning layer of one replica, over css's replica ([css]): the
   serial log by serial number and the compaction frontier. *)
type layer = {
  css : Protocol.replica;
  by_serial : (int, Op_id.t) Hashtbl.t;
  mutable pruned_to : int;
  (* Per-client stable watermarks: client [c]'s operations with
     sequence number <= [stable_seqs.(c)] have been compacted into the
     space's root.  FIFO channels serialize each client's operations
     in sequence order, so the compacted prefix of every client is
     contiguous and these [nclients + 1] integers are the {e entire}
     bookkeeping needed to reconstruct the absolute visible set — the
     rebased space itself only holds the live window. *)
  stable_seqs : int array;
}

type client = {
  client : Protocol.client;
  client_layer : layer;
  mutable acked : int;  (* highest serial processed *)
}

type server = {
  server : Protocol.server;
  server_layer : layer;
  client_acked : int array;  (* per-client acknowledged serial *)
  mutable base_doc : Document.t;  (* read by the stable snapshot only *)
}

let make_layer css ~nclients =
  {
    css;
    by_serial = Hashtbl.create 64;
    pruned_to = 0;
    stable_seqs = Array.make (nclients + 1) 0;
  }

(* The operations the log holds for serials [pruned_to + 1 .. upto],
   in serial order; the error for a missing one calls [upto] [what]. *)
let logged r ~what ~upto =
  List.init (max 0 (upto - r.pruned_to)) (fun i ->
      let serial = r.pruned_to + 1 + i in
      match Hashtbl.find_opt r.by_serial serial with
      | Some id -> id
      | None ->
        invalid_arg
          (Printf.sprintf "css-pruned: %s %d references an unknown serial %d"
             what upto serial))

(* Compact the replica's space onto the state holding every operation
   with serial <= [stable], then truncate the serial log (the WAL) up
   to that point.  Truncation is safe because after compaction the
   space's root contains every operation with serial <= stable, so no
   retained transition has one as its original operation, and [prune]
   itself only ever walks serials from [pruned_to + 1] up — the
   truncated entries can never be consulted again.  Given the document
   at the old root (the server's), it returns the one at the new root. *)
let prune ?base_doc r ~stable =
  if stable <= r.pruned_to then None
  else begin
    let ids = logged r ~what:"stable serial" ~upto:stable in
    let space = Protocol.space r.css in
    let stable_state =
      List.fold_left (fun s id -> Op_id.Set.add id s) (State_space.root space)
        ids
    in
    let doc = State_space.compact ?base_doc space ~stable:stable_state in
    List.iteri
      (fun i (id : Op_id.t) ->
        (* FIFO serialization: per client the seqs arrive in order, so
           a max-update keeps the watermark at the compacted prefix. *)
        r.stable_seqs.(id.client) <- max r.stable_seqs.(id.client) id.seq;
        Hashtbl.remove r.by_serial (r.pruned_to + 1 + i);
        Protocol.forget r.css id)
      ids;
    r.pruned_to <- stable;
    doc
  end

(* --- context translation across compaction frontiers ----------------

   The rebased space represents states relative to its own frontier
   ([pruned_to]); contexts cross replica boundaries relative to the
   {e sender's} frontier, so each receive translates.

   c2s: a client's frontier never runs ahead of the server's (clients
   learn stability from the server), so the server only has to {e drop}
   the context's already-compacted identifiers.  Membership in the
   serial table is the test: every identifier in a client context has
   been serialized by the server (the client's own earlier updates by
   c2s FIFO, everything else because the client saw it in a Deliver),
   so an unknown identifier can only be a compacted one.

   s2c: the server's frontier at broadcast time ([Deliver.base]) may
   run ahead of the receiving client's, so the client {e widens} the
   context with the operations between its own frontier and [base] —
   all present in its serial log, because [base] only covers serials
   every client acknowledged and s2c FIFO delivered them here first. *)

let narrow_ctx r ctx = Op_id.Set.filter (Protocol.serialized r.css) ctx

let widen_ctx r ctx ~base =
  List.fold_left
    (fun ctx id -> Op_id.Set.add id ctx)
    ctx
    (logged r ~what:"deliver base" ~upto:base)

let create_client ~fastpath ~nclients ~id ~initial =
  let client = Protocol.create_client ~fastpath ~nclients ~id ~initial in
  let layer = make_layer (Protocol.client_replica client) ~nclients in
  { client; client_layer = layer; acked = 0 }

let create_server ~fastpath ~nclients ~initial =
  let server = Protocol.create_server ~fastpath ~nclients ~initial in
  let server_layer = make_layer (Protocol.server_replica server) ~nclients in
  let client_acked = Array.make (nclients + 1) 0 in
  { server; server_layer; client_acked; base_doc = initial }

let client_generate t intent =
  match Protocol.client_generate t.client intent with
  | outcome, None -> outcome, None
  | outcome, Some { Protocol.op; ctx } ->
    outcome, Some (Update { op; ctx; acked = t.acked })

let stable_serial t =
  let stable = ref max_int in
  for i = 1 to Array.length t.client_acked - 1 do
    stable := min !stable t.client_acked.(i)
  done;
  !stable

let ack t ~from acked =
  t.client_acked.(from) <- max t.client_acked.(from) acked

let broadcast t msg =
  List.init (Array.length t.client_acked - 1) (fun i -> i + 1, msg)

(* A run of updates is stamped and walked through the ladder as one
   batch by css, and pruned once; the emitted [Deliver]s all carry the
   post-batch stable serial — stability only grows, and the
   acknowledgements it is computed from were genuinely received, so
   the earlier messages advertising a slightly later stable point is
   sound. *)
let serve_updates t ~from updates =
  let r = t.server_layer in
  let batch =
    List.filter_map
      (function
        | Update { op; ctx; acked } ->
          ack t ~from acked;
          Some { Protocol.op; ctx }
        | Heartbeat _ -> None)
      updates
  in
  (* [base] is the frontier [ctx] was narrowed against, captured
     {e before} the prune below advances it.  Soundness: any stable
     point the server computed strictly before processing this
     update is covered by the update's own acknowledgement (the
     origin's acks are monotone and c2s is FIFO), so the absolute
     context covers [base] — which is exactly what the receiver's
     widening assumes.  The {e post}-prune frontier does not have
     this property: acknowledgements piggybacked on later updates of
     the same batch can push stability past what this context ever
     saw, and advertising that frontier would make the receiver
     widen operations into the context that were never in it. *)
  let base = r.pruned_to in
  let stamped = Protocol.stamp t.server ~narrow:(narrow_ctx r) batch in
  List.iter
    (fun ((op : Op.t), _, serial) -> Hashtbl.replace r.by_serial serial op.id)
    stamped;
  let stable = stable_serial t in
  Option.iter (fun d -> t.base_doc <- d) (prune ~base_doc:t.base_doc r ~stable);
  List.concat_map
    (fun (op, ctx, serial) ->
      broadcast t (Deliver { op; ctx; serial; origin = from; stable; base }))
    stamped

let heartbeat t ~from acked =
  ack t ~from acked;
  let stable = stable_serial t and r = t.server_layer in
  if stable > r.pruned_to then begin
    Option.iter (fun d -> t.base_doc <- d)
      (prune ~base_doc:t.base_doc r ~stable);
    broadcast t (Stable { stable })
  end
  else []

(* Mixed batches (heartbeats interleaved) go one message at a time, so
   each [Deliver] carries the stable serial of its own moment. *)
let server_receive_batch t ~from batch =
  if List.for_all (function Update _ -> true | Heartbeat _ -> false) batch
  then serve_updates t ~from batch
  else
    List.concat_map
      (function
        | Update _ as msg -> serve_updates t ~from [ msg ]
        | Heartbeat { acked } -> heartbeat t ~from acked)
      batch

let server_receive t ~from msg = server_receive_batch t ~from [ msg ]

(* Every serial of the batch is logged, and the batch's highest stable
   serial found, before any context is widened (an own operation's
   context is widened too, and css ignores it); css then records the
   serials and processes the foreign operations as one run, and the
   replica prunes once. *)
let client_receive_batch t batch =
  let r = t.client_layer in
  let stable =
    List.fold_left
      (fun acc -> function
        | Deliver { op; serial; stable; _ } ->
          Hashtbl.replace r.by_serial serial op.Op.id;
          t.acked <- max t.acked serial;
          max acc stable
        | Stable { stable } -> max acc stable)
      r.pruned_to batch
  in
  Protocol.client_receive_batch t.client
    (List.filter_map
       (function
         | Deliver { op; ctx; serial; origin; base; _ } ->
           Some { Protocol.op; ctx = widen_ctx r ctx ~base; serial; origin }
         | Stable _ -> None)
       batch);
  ignore (prune r ~stable : Document.t option)

let client_receive t msg = client_receive_batch t [ msg ]

let client_heartbeat t = Heartbeat { acked = t.acked }

let c2s_op_id : c2s -> Op_id.t option = function
  | Update { op; _ } -> Some op.Op.id
  | Heartbeat _ -> None

let s2c_op_id : s2c -> Op_id.t option = function
  | Deliver { op; _ } -> Some op.Op.id
  | Stable _ -> None

let client_document t = Protocol.client_document t.client

let server_document t = Protocol.server_document t.server

(* The absolute visible set (Definition 4.5): the rebased space's
   final state covers only the live window, so the compacted prefix is
   reconstructed from the per-client stable watermarks.  O(total ops)
   per call — the spec checker's and history mode's price, never paid
   on the message path. *)
let absolute r set =
  let abs = ref set in
  Array.iteri
    (fun c m ->
      for seq = 1 to m do
        abs := Op_id.Set.add (Op_id.make ~client:c ~seq) !abs
      done)
    r.stable_seqs;
  !abs

let client_visible t =
  absolute t.client_layer (Protocol.client_visible t.client)

let server_visible t =
  absolute t.server_layer (Protocol.server_visible t.server)

let client_ot_count t = Protocol.client_ot_count t.client

let server_ot_count t = Protocol.server_ot_count t.server

let client_metadata_size t = Protocol.client_metadata_size t.client

let server_metadata_size t = Protocol.server_metadata_size t.server

let client_space t = Protocol.client_space t.client

let server_space t = Protocol.server_space t.server

let client_pruned_to t = t.client_layer.pruned_to

let server_pruned_to t = t.server_layer.pruned_to

(* The server's stable snapshot: the document at the space's root (the
   stable state — every replica has executed everything in it) plus
   the serial it covers.  This is the Raft snapshot at the
   log-truncation point: snapshot + retained log suffix reconstructs
   the replica. *)
let server_snapshot t =
  Snapshot.stable_to_string
    {
      Snapshot.at_serial = t.server_layer.pruned_to;
      stable_doc = t.base_doc;
    }

let gc_support =
  Some
    {
      Rlist_sim.Protocol_intf.gc_heartbeat = client_heartbeat;
      gc_client_frontier = client_pruned_to;
      gc_server_frontier = server_pruned_to;
      gc_snapshot = server_snapshot;
    }
