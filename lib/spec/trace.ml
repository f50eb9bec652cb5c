open Rlist_model

type t = {
  initial : Document.t;
  events : Event.t list;
}

let make ~initial ~events = { initial; events }

let events t = t.events

let updates t = List.filter Event.is_update t.events

let reads t = List.filter Event.is_read t.events

let elems t =
  let inserted =
    List.filter_map
      (fun e ->
        match e.Event.op with
        | Event.Do_ins (elt, _) -> Some elt
        | Event.Do_del _ | Event.Do_read -> None)
      t.events
  in
  Document.elements t.initial @ inserted

let inserted_element t id =
  if Op_id.is_initial id then
    Seq.find
      (fun elt -> Op_id.equal elt.Element.id id)
      (Document.to_seq t.initial)
  else
    List.find_map
      (fun e ->
        match e.Event.op, e.Event.op_id with
        | Event.Do_ins (elt, _), Some id' when Op_id.equal id id' -> Some elt
        | _ -> None)
      t.events

let validate t =
  let exception Bad of string in
  let fail fmt = Format.kasprintf (fun s -> raise (Bad s)) fmt in
  try
    let ids = Hashtbl.create 64 in
    List.iteri
      (fun i e ->
        if e.Event.eid <> i then
          fail "event %d carries eid %d" i e.Event.eid;
        match e.Event.op_id with
        | None -> ()
        | Some id ->
          if Hashtbl.mem ids id then
            fail "duplicate update identifier %a" Op_id.pp id;
          Hashtbl.add ids id ();
          if not (Op_id.Set.mem id e.Event.visible) then
            fail "update %a is not visible to itself" Op_id.pp id)
      t.events;
    let initial_ids =
      Document.fold
        (fun acc elt -> Op_id.Set.add elt.Element.id acc)
        Op_id.Set.empty t.initial
    in
    List.iter
      (fun e ->
        Op_id.Set.iter
          (fun id ->
            if not (Hashtbl.mem ids id || Op_id.Set.mem id initial_ids) then
              fail "event #%d sees unknown update %a" e.Event.eid Op_id.pp id)
          e.Event.visible)
      t.events;
    (* Thread of execution: per-replica visibility grows monotonically,
       so same-replica precedence implies visibility (Definition 2.9,
       condition 1). *)
    let last : (Replica_id.t, Op_id.Set.t) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun e ->
        (match Hashtbl.find_opt last e.Event.replica with
        | Some prev when not (Op_id.Set.subset prev e.Event.visible) ->
          fail "visibility shrank at %a before event #%d" Replica_id.pp
            e.Event.replica e.Event.eid
        | Some _ | None -> ());
        Hashtbl.replace last e.Event.replica e.Event.visible)
      t.events;
    Ok ()
  with Bad msg -> Error msg

let pp ppf t =
  Format.fprintf ppf "@[<v>initial: %a@,%a@]" Document.pp t.initial
    (Format.pp_print_list Event.pp)
    t.events
