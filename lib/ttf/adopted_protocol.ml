open Rlist_model
open Rlist_ot

let name = "ttf-adopted"

type message = {
  op : Op.t;
  ctx : Context.t;
  vc : int array;
  lamport : int;
  origin : int;
}

type peer = {
  id : int;
  npeers : int;
  lattice : Lattice.t;
  model : Ttf_model.t;
  mutable integrated : Op_id.Set.t;
  mutable next_seq : int;
  mutable clock : int;
  vc : int array;  (* integrated operations per origin *)
  mutable pend : message list;  (* not yet causally ready *)
}

let create_peer ~fastpath:_ ~npeers ~id ~initial =
  if id < 1 then invalid_arg "ttf-adopted: peer identifiers start at 1";
  {
    id;
    npeers;
    lattice = Lattice.create ~transform:Ttf_transform.xform ();
    model = Ttf_model.create ~initial;
    integrated = Op_id.Set.empty;
    next_seq = 1;
    clock = 0;
    vc = Array.make (npeers + 1) 0;
    pend = [];
  }

let causally_ready t (m : message) =
  m.vc.(m.origin) = t.vc.(m.origin) + 1
  && begin
       let ok = ref true in
       for q = 1 to t.npeers do
         if q <> m.origin && m.vc.(q) > t.vc.(q) then ok := false
       done;
       !ok
     end

let rec drain t =
  match List.find_opt (causally_ready t) t.pend with
  | None -> ()
  | Some m ->
    t.pend <- List.filter (fun m' -> m' != m) t.pend;
    t.clock <- max t.clock m.lamport + 1;
    Lattice.register t.lattice m.op ~ctx:m.ctx;
    let form = Lattice.form_at t.lattice m.op.Op.id t.integrated in
    Ttf_transform.apply form t.model;
    t.integrated <- Op_id.Set.add m.op.Op.id t.integrated;
    t.vc.(m.origin) <- t.vc.(m.origin) + 1;
    drain t

(* Resolve the intent against the view, then restate positions in the
   model: insertions at the model slot of the view position, deletions
   at the model slot of the targeted element. *)
let generate t intent =
  let view = Ttf_model.view t.model in
  let { Rlist_sim.Intent_resolver.outcome; op } =
    Rlist_sim.Intent_resolver.resolve ~client:t.id ~seq:t.next_seq ~doc:view
      intent
  in
  match op with
  | None -> outcome, None
  | Some view_op ->
    t.next_seq <- t.next_seq + 1;
    let model_op =
      match view_op.Op.action with
      | Op.Ins (elt, view_pos) ->
        Op.make_ins ~id:view_op.Op.id elt
          (Ttf_model.model_position_of_view t.model view_pos)
      | Op.Del (elt, view_pos) ->
        Op.make_del ~id:view_op.Op.id elt
          (Ttf_model.model_position_of_view t.model view_pos)
      | Op.Nop -> assert false
    in
    t.clock <- t.clock + 1;
    let lamport = t.clock in
    let ctx = t.integrated in
    Lattice.register t.lattice model_op ~ctx;
    Ttf_transform.apply model_op t.model;
    t.integrated <- Op_id.Set.add model_op.Op.id t.integrated;
    t.vc.(t.id) <- t.vc.(t.id) + 1;
    let vc = Array.copy t.vc in
    outcome, Some { op = model_op; ctx; vc; lamport; origin = t.id }

(* Integration is per operation, so a batch is handled message by
   message; nothing is broadcast in reaction. *)
let receive t ~from messages =
  ignore from;
  List.iter
    (fun message ->
      t.pend <- message :: t.pend;
      drain t)
    messages;
  []

let message_op_id (m : message) = Some m.op.Op.id

let document t = Ttf_model.view t.model

let visible t = t.integrated

let ot_count t = Lattice.ot_count t.lattice

let metadata_size t =
  Lattice.size t.lattice
  + Ttf_model.model_length t.model
  + List.length t.pend

let buffered t = List.length t.pend

let tombstones t = Ttf_model.tombstones t.model
