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
          (* the server's compaction frontier [ctx] is relative to:
             the receiver widens [ctx] with the operations between its
             own frontier and [base] before looking it up *)
    }
  | Stable of { stable : int }

type replica = {
  space : State_space.t;
  serials : int Op_id.Table.t;
  by_serial : (int, Op_id.t) Hashtbl.t;
  mutable doc : Document.t;
  mutable base_doc : Document.t;  (* document at the space's root *)
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
  id : int;
  replica : replica;
  mutable next_seq : int;
  mutable acked : int;  (* highest serial processed *)
}

type server = {
  nclients : int;
  server_replica : replica;
  mutable next_serial : int;
  client_acked : int array;  (* per-client acknowledged serial *)
}

let make_replica ~fastpath ~nclients ~initial ~own_client =
  let serials = Op_id.Table.create 64 in
  let key_of =
    Order_key.of_serials ~who:"css-pruned replica" ~own_client serials
  in
  {
    space = State_space.create ~fastpath ~key_of ();
    serials;
    by_serial = Hashtbl.create 64;
    doc = initial;
    base_doc = initial;
    pruned_to = 0;
    stable_seqs = Array.make (nclients + 1) 0;
  }

let record_serial r id serial =
  Op_id.Table.replace r.serials id serial;
  Hashtbl.replace r.by_serial serial id

let process r (oc : Context.op_in_context) =
  let form = State_space.add_op r.space oc in
  r.doc <- Op.apply form r.doc

(* Compact the replica's space onto the state holding every operation
   with serial <= [stable], then truncate the serial log (the WAL) up
   to that point.  Truncation is safe because after compaction the
   space's root contains every operation with serial <= stable, so no
   retained transition has one as its original operation, and [prune]
   itself only ever walks serials from [pruned_to + 1] up — the
   truncated entries can never be consulted again. *)
let prune r ~stable =
  if stable > r.pruned_to then begin
    let stable_state =
      let rec extend state serial =
        if serial > stable then state
        else
          match Hashtbl.find_opt r.by_serial serial with
          | Some id -> extend (Op_id.Set.add id state) (serial + 1)
          | None ->
            invalid_arg
              (Printf.sprintf
                 "css-pruned: stable serial %d references an unknown \
                  operation %d"
                 stable serial)
      in
      extend (State_space.root r.space) (r.pruned_to + 1)
    in
    r.base_doc <-
      State_space.compact r.space ~stable:stable_state ~base_doc:r.base_doc;
    for serial = r.pruned_to + 1 to stable do
      match Hashtbl.find_opt r.by_serial serial with
      | Some id ->
        (* FIFO serialization: per client the seqs arrive in order, so
           a max-update keeps the watermark at the compacted prefix. *)
        let c = id.Op_id.client in
        if id.Op_id.seq > r.stable_seqs.(c) then
          r.stable_seqs.(c) <- id.Op_id.seq;
        Hashtbl.remove r.by_serial serial;
        Op_id.Table.remove r.serials id
      | None -> ()
    done;
    r.pruned_to <- stable
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

let narrow_ctx r ctx = Op_id.Set.filter (Op_id.Table.mem r.serials) ctx

let widen_ctx r ctx ~base =
  let rec go ctx serial =
    if serial > base then ctx
    else
      match Hashtbl.find_opt r.by_serial serial with
      | Some id -> go (Op_id.Set.add id ctx) (serial + 1)
      | None ->
        invalid_arg
          (Printf.sprintf
             "css-pruned: deliver base %d references an unknown serial %d"
             base serial)
  in
  go ctx (r.pruned_to + 1)

let create_client ~fastpath ~nclients ~id ~initial =
  if id < 1 then invalid_arg "css-pruned: client identifiers start at 1";
  {
    id;
    replica = make_replica ~fastpath ~nclients ~initial ~own_client:id;
    next_seq = 1;
    acked = 0;
  }

let create_server ~fastpath ~nclients ~initial =
  {
    nclients;
    server_replica = make_replica ~fastpath ~nclients ~initial ~own_client:0;
    next_serial = 1;
    client_acked = Array.make (nclients + 1) 0;
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
    outcome, Some (Update { op; ctx; acked = t.acked })

let stable_serial t =
  let stable = ref max_int in
  for i = 1 to t.nclients do
    stable := min !stable t.client_acked.(i)
  done;
  !stable

let server_receive t ~from (msg : c2s) =
  match msg with
  | Update { op; ctx; acked } ->
    t.client_acked.(from) <- max t.client_acked.(from) acked;
    let r = t.server_replica in
    let serial = t.next_serial in
    t.next_serial <- serial + 1;
    record_serial r op.Op.id serial;
    let ctx = narrow_ctx r ctx in
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
    process r (Context.with_context op ~ctx);
    let stable = stable_serial t in
    prune r ~stable;
    List.init t.nclients (fun i ->
        i + 1, Deliver { op; ctx; serial; origin = from; stable; base })
  | Heartbeat { acked } ->
    t.client_acked.(from) <- max t.client_acked.(from) acked;
    let stable = stable_serial t in
    if stable > t.server_replica.pruned_to then begin
      prune t.server_replica ~stable;
      List.init t.nclients (fun i -> i + 1, Stable { stable })
    end
    else []

let client_receive t (msg : s2c) =
  match msg with
  | Deliver { op; ctx; serial; origin; stable; base } ->
    let r = t.replica in
    record_serial r op.Op.id serial;
    if origin <> t.id then begin
      let ctx = widen_ctx r ctx ~base in
      process r (Context.with_context op ~ctx)
    end;
    t.acked <- max t.acked serial;
    prune r ~stable
  | Stable { stable } -> prune t.replica ~stable

let client_heartbeat t = Heartbeat { acked = t.acked }

(* Batched delivery.  A batch of updates is stamped upfront, walked
   through the ladder as one run (State_space.add_run), and pruned
   once; the emitted [Deliver]s all carry the post-batch stable serial
   — stability only grows, and the acknowledgements it is computed
   from were genuinely received, so the earlier messages advertising a
   slightly later stable point is sound.  Mixed batches (heartbeats
   interleaved) fall back to the one-by-one fold. *)
let server_receive_batch t ~from batch =
  let updates =
    List.filter_map
      (function Update { op; ctx; acked } -> Some (op, ctx, acked) | _ -> None)
      batch
  in
  if List.length updates <> List.length batch then
    List.concat_map (fun msg -> server_receive t ~from msg) batch
  else begin
    let r = t.server_replica in
    let stamped =
      List.map
        (fun (op, ctx, acked) ->
          t.client_acked.(from) <- max t.client_acked.(from) acked;
          let serial = t.next_serial in
          t.next_serial <- serial + 1;
          record_serial r op.Rlist_ot.Op.id serial;
          op, narrow_ctx r ctx, serial)
        updates
    in
    (* As in {!server_receive}: the broadcast base is the stamp-time
       frontier, captured before the batch's acks advance it — the
       batch's later acknowledgements can push stability past what its
       earlier contexts cover. *)
    let base = r.pruned_to in
    let forms =
      State_space.add_run r.space
        (List.map (fun (op, ctx, _) -> Context.with_context op ~ctx) stamped)
    in
    List.iter (fun form -> r.doc <- Op.apply form r.doc) forms;
    let stable = stable_serial t in
    prune r ~stable;
    List.concat_map
      (fun (op, ctx, serial) ->
        List.init t.nclients (fun i ->
            i + 1, Deliver { op; ctx; serial; origin = from; stable; base }))
      stamped
  end

let client_receive_batch t batch =
  let r = t.replica in
  List.iter
    (function
      | Deliver { op; serial; _ } -> record_serial r op.Op.id serial
      | Stable _ -> ())
    batch;
  let foreign =
    List.filter_map
      (function
        | Deliver { op; ctx; origin; base; _ } when origin <> t.id ->
          Some (Context.with_context op ~ctx:(widen_ctx r ctx ~base))
        | _ -> None)
      batch
  in
  (match foreign with
  | [] -> ()
  | _ :: _ ->
    let forms = State_space.add_run r.space foreign in
    List.iter (fun form -> r.doc <- Op.apply form r.doc) forms);
  let stable =
    List.fold_left
      (fun acc -> function
        | Deliver { serial; stable; _ } ->
          t.acked <- max t.acked serial;
          max acc stable
        | Stable { stable } -> max acc stable)
      r.pruned_to batch
  in
  prune r ~stable

let c2s_op_id : c2s -> Op_id.t option = function
  | Update { op; _ } -> Some op.Op.id
  | Heartbeat _ -> None

let s2c_op_id : s2c -> Op_id.t option = function
  | Deliver { op; _ } -> Some op.Op.id
  | Stable _ -> None

let client_document t = t.replica.doc

let server_document t = t.server_replica.doc

(* The absolute visible set (Definition 4.5): the rebased space's
   final state covers only the live window, so the compacted prefix is
   reconstructed from the per-client stable watermarks.  O(total ops)
   per call — the spec checker's and history mode's price, never paid
   on the message path. *)
let absolute r set =
  let abs = ref set in
  Array.iteri
    (fun c m ->
      if c > 0 then
        for seq = 1 to m do
          abs := Op_id.Set.add (Op_id.make ~client:c ~seq) !abs
        done)
    r.stable_seqs;
  !abs

let client_visible t = absolute t.replica (State_space.final t.replica.space)

let server_visible t =
  absolute t.server_replica (State_space.final t.server_replica.space)

let client_ot_count t = State_space.ot_count t.replica.space

let server_ot_count t = State_space.ot_count t.server_replica.space

let client_metadata_size t = State_space.size t.replica.space

let server_metadata_size t = State_space.size t.server_replica.space

let client_space t = t.replica.space

let server_space t = t.server_replica.space

let client_pruned_to t = t.replica.pruned_to

let server_pruned_to t = t.server_replica.pruned_to

let server_log_length t = t.next_serial - 1 - t.server_replica.pruned_to

(* The server's stable snapshot: the document at the space's root (the
   stable state — every replica has executed everything in it) plus
   the serial it covers.  This is the Raft snapshot at the
   log-truncation point: snapshot + retained log suffix reconstructs
   the replica. *)
let server_snapshot t =
  Snapshot.stable_to_string
    {
      Snapshot.at_serial = t.server_replica.pruned_to;
      stable_doc = t.server_replica.base_doc;
    }

let gc_support =
  Some
    {
      Rlist_sim.Protocol_intf.gc_heartbeat = client_heartbeat;
      gc_client_frontier = client_pruned_to;
      gc_server_frontier = server_pruned_to;
      gc_server_lag = server_log_length;
      gc_snapshot = server_snapshot;
    }
