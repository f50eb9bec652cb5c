open Rlist_model
open Rlist_ot

let name = "cscw"

let server_is_replica = true

type c2s = {
  op : Op.t;
  seen : int;
}

type s2c =
  | Forward of {
      op : Op.t;
      ack_local : int;
    }
  | Ack

type client = {
  id : int;
  space : Two_d_space.t;
  mutable doc : Document.t;
  mutable next_seq : int;
  mutable seen : int;  (* remote operations received from the server *)
  mutable visible : Op_id.Set.t;
  ot_counter : int ref;
}

type server = {
  nclients : int;
  spaces : Two_d_space.t array;  (* index 1..n: DSS_{s,i} *)
  mutable server_doc : Document.t;
  mutable server_visible : Op_id.Set.t;
  server_ot_counter : int ref;
}

let create_client ~fastpath:_ ~nclients ~id ~initial =
  ignore nclients;
  if id < 1 then invalid_arg "CSCW: client identifiers start at 1";
  let ot_counter = ref 0 in
  {
    id;
    space = Two_d_space.create ~ot_counter ();
    doc = initial;
    next_seq = 1;
    seen = 0;
    visible = Op_id.Set.empty;
    ot_counter;
  }

let create_server ~fastpath:_ ~nclients ~initial =
  let server_ot_counter = ref 0 in
  {
    nclients;
    spaces =
      Array.init (nclients + 1) (fun _ ->
          Two_d_space.create ~ot_counter:server_ot_counter ());
    server_doc = initial;
    server_visible = Op_id.Set.empty;
    server_ot_counter;
  }

(* Local processing (Section 5.2.1): execute immediately, save along
   the local dimension, propagate. *)
let client_generate t intent =
  let { Rlist_sim.Intent_resolver.outcome; op } =
    Rlist_sim.Intent_resolver.resolve ~client:t.id ~seq:t.next_seq ~doc:t.doc
      intent
  in
  match op with
  | None -> outcome, None
  | Some op ->
    t.next_seq <- t.next_seq + 1;
    t.doc <- Op.apply op t.doc;
    t.visible <- Op_id.Set.add op.Op.id t.visible;
    let top = Two_d_space.add_local t.space op ~at_global:t.seen in
    (* The client generates on its current state, so no transformation
       happens here. *)
    assert (Op.equal top op);
    outcome, Some { op; seen = t.seen }

(* Server processing (Section 5.2.2): transform the incoming operation
   in the originator's space, execute it, append the transformed form
   to every other space's global dimension, and propagate. *)
let server_receive t ~from ({ op; seen } : c2s) =
  let transformed = Two_d_space.add_local t.spaces.(from) op ~at_global:seen in
  t.server_doc <- Op.apply transformed t.server_doc;
  t.server_visible <- Op_id.Set.add op.Op.id t.server_visible;
  List.init t.nclients (fun i ->
      let dest = i + 1 in
      if dest = from then dest, Ack
      else begin
        let local, _global = Two_d_space.extent t.spaces.(dest) in
        (* [transformed] is defined on the server's current state, the
           top of every per-client space. *)
        let top = Two_d_space.add_global t.spaces.(dest) transformed ~at_local:local in
        assert (Op.equal top transformed);
        dest, Forward { op = transformed; ack_local = local }
      end)

(* Remote processing (Section 5.2.3): transform the server's operation
   against the client's concurrent local operations and execute. *)
let client_receive t = function
  | Ack -> ()
  | Forward { op; ack_local } ->
    let transformed = Two_d_space.add_global t.space op ~at_local:ack_local in
    t.doc <- Op.apply transformed t.doc;
    t.visible <- Op_id.Set.add op.Op.id t.visible;
    t.seen <- t.seen + 1

let c2s_op_id ({ op; _ } : c2s) = Some op.Op.id

let s2c_op_id = function
  | Forward { op; _ } -> Some op.Op.id
  | Ack -> None

let client_document t = t.doc

let server_document t = t.server_doc

let client_visible t = t.visible

let server_visible t = t.server_visible

let client_ot_count t = !(t.ot_counter)

let server_ot_count t = !(t.server_ot_counter)

let client_metadata_size t = Two_d_space.size t.space

let server_metadata_size t =
  let sum = ref 0 in
  for i = 1 to t.nclients do
    sum := !sum + Two_d_space.size t.spaces.(i)
  done;
  !sum

(* Batch delivery: 2D-space transformation is per operation, so a batch
   is the in-order fold. *)
let server_receive_batch t ~from batch =
  List.concat_map (fun msg -> server_receive t ~from msg) batch

let client_receive_batch t batch = List.iter (client_receive t) batch

(* No ack-driven pruning machinery; GC-enabled runs degrade to
   shim-level pruning only. *)
let gc_support = None
