open Rlist_model

(* The client side is the CSS client, bit for bit, so it inherits the
   run-at-once ladder walk; only the server is replaced. *)
include (Protocol : module type of Protocol with type server := Protocol.server)

let name = "css-sequencer"

let server_is_replica = false

type server = {
  nclients : int;
  mutable next_serial : int;
  mutable seen : Op_id.Set.t;  (* operations sequenced so far *)
}

let create_server ~fastpath:_ ~nclients ~initial:_ =
  { nclients; next_serial = 1; seen = Op_id.Set.empty }

(* The whole center: stamp a serial number and fan out the original
   operation.  No document, no state-space, no OT. *)
let server_receive t ~from ({ op; ctx } : c2s) =
  let serial = t.next_serial in
  t.next_serial <- serial + 1;
  t.seen <- Op_id.Set.add op.Rlist_ot.Op.id t.seen;
  List.init t.nclients (fun i -> i + 1, { op; ctx; serial; origin = from })

let server_receive_batch t ~from batch =
  List.concat_map (fun msg -> server_receive t ~from msg) batch

let server_document _ = Document.empty

let server_visible t = t.seen

let server_ot_count _ = 0

let server_metadata_size _ = 0

(* No ack-driven pruning machinery; GC-enabled runs degrade to
   shim-level pruning only. *)
let gc_support = None
