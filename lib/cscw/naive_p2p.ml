open Rlist_model
open Rlist_ot

let name = "naive-dopt"

let server_is_replica = true

type c2s = {
  op : Op.t;
  clock : int array;
}

type s2c = {
  op : Op.t;
  clock : int array;
  origin : int;
}

(* [orig_clock] is the concurrency information a correct algorithm
   would consult; the naive foil records it and never reads it — that
   omission is the bug being demonstrated. *)
type executed = {
  form : Op.t;  (* the form actually applied to the document *)
  orig_clock : int array;  (* the generator's knowledge *)
  orig_client : int;
  orig_seq : int;
}
[@@warning "-69"]

type client = {
  id : int;
  nclients : int; [@warning "-69"]
  mutable doc : Document.t;
  mutable next_seq : int;
  mutable log : executed list;  (* reversed execution order *)
  clock : int array;
  mutable visible : Op_id.Set.t;
  mutable ot_count : int;
}

type server = {
  snclients : int;
  mutable sdoc : Document.t;
  mutable svisible : Op_id.Set.t;
  mutable slog : executed list;
  sclock : int array;
  mutable sot_count : int;
}

let create_client ~fastpath:_ ~nclients ~id ~initial =
  {
    id;
    nclients;
    doc = initial;
    next_seq = 1;
    log = [];
    clock = Array.make (nclients + 1) 0;
    visible = Op_id.Set.empty;
    ot_count = 0;
  }

let create_server ~fastpath:_ ~nclients ~initial =
  {
    snclients = nclients;
    sdoc = initial;
    svisible = Op_id.Set.empty;
    slog = [];
    sclock = Array.make (nclients + 1) 0;
    sot_count = 0;
  }

(* [known clock e]: was [e]'s original operation known to the
   generator of the incoming operation? *)
let known clock e = clock.(e.orig_client) >= e.orig_seq

(* dOPT-style integration: transform the remote operation against the
   concurrent executed operations, in execution order, with the
   non-convergent tie-break. *)
let integrate ~count log clock op =
  List.fold_left
    (fun o e ->
      if known clock e then o
      else begin
        incr count;
        Transform.xform_no_priority o e.form
      end)
    op (List.rev log)

let record_execution t form ~orig_clock ~orig_client ~orig_seq =
  t.log <- { form; orig_clock; orig_client; orig_seq } :: t.log

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
    t.clock.(t.id) <- t.clock.(t.id) + 1;
    t.visible <- Op_id.Set.add op.Op.id t.visible;
    let clock = Array.copy t.clock in
    record_execution t op ~orig_clock:clock ~orig_client:t.id
      ~orig_seq:op.Op.id.Op_id.seq;
    outcome, Some { op; clock }

(* The relay "server" integrates the operation into its own copy (it
   is a replica like any other) and forwards the original to
   everyone. *)
let server_receive t ~from ({ op; clock } : c2s) =
  let count = ref t.sot_count in
  let form = integrate ~count t.slog clock op in
  t.sot_count <- !count;
  t.sdoc <- Op.apply form t.sdoc;
  t.sclock.(from) <- t.sclock.(from) + 1;
  t.svisible <- Op_id.Set.add op.Op.id t.svisible;
  t.slog <-
    {
      form;
      orig_clock = clock;
      orig_client = from;
      orig_seq = op.Op.id.Op_id.seq;
    }
    :: t.slog;
  List.init t.snclients (fun i -> i + 1, { op; clock; origin = from })

let client_receive t ({ op; clock; origin } : s2c) =
  if origin <> t.id then begin
    let count = ref t.ot_count in
    let form = integrate ~count t.log clock op in
    t.ot_count <- !count;
    t.doc <- Op.apply form t.doc;
    t.clock.(origin) <- t.clock.(origin) + 1;
    t.visible <- Op_id.Set.add op.Op.id t.visible;
    record_execution t form ~orig_clock:clock ~orig_client:origin
      ~orig_seq:op.Op.id.Op_id.seq
  end

let c2s_op_id ({ op; _ } : c2s) = Some op.Op.id

let s2c_op_id ({ op; _ } : s2c) = Some op.Op.id

let client_document t = t.doc

let server_document t = t.sdoc

let client_visible t = t.visible

let server_visible t = t.svisible

let client_ot_count t = t.ot_count

let server_ot_count t = t.sot_count

let client_metadata_size t = List.length t.log

let server_metadata_size t = List.length t.slog

(* Batch delivery: dOPT integration is per operation, so a batch is
   the in-order fold. *)
let server_receive_batch t ~from batch =
  List.concat_map (fun msg -> server_receive t ~from msg) batch

let client_receive_batch t batch = List.iter (client_receive t) batch

(* No ack-driven pruning machinery; GC-enabled runs degrade to
   shim-level pruning only. *)
let gc_support = None
