open Rlist_model
open Rlist_ot

type state = State_space.state

(* The whole space from one walk: its states, in {!State_space.states}
   order, and every state's ordered transitions by state.  The
   analyses below visit each state many times, so they look
   transitions up here rather than in the space. *)
type walk = {
  states : state list;
  next : state -> State_space.transition list;
}

let walk t =
  let listing = State_space.listing t in
  let table = Op_id.State_table.create 64 in
  List.iter (fun (s, trs) -> Op_id.State_table.replace table s trs) listing;
  let next s =
    match Op_id.State_table.find_opt table s with
    | Some trs -> trs
    | None ->
      invalid_arg (Format.asprintf "Analysis: unknown state %a" Op_id.Set.pp s)
  in
  { states = List.map fst listing; next }

let documents t ~initial =
  (* Breadth-first replay from the initial state.  Each state's
     document is computed once; any further path reaching it must
     agree (confluence, from CP1). *)
  let w = walk t in
  let docs : Document.t Op_id.State_table.t = Op_id.State_table.create 64 in
  Op_id.State_table.add docs (State_space.root t) initial;
  let queue = Queue.create () in
  Queue.push (State_space.root t) queue;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    let doc = Op_id.State_table.find docs s in
    List.iter
      (fun tr ->
        let doc' = Op.apply tr.State_space.form doc in
        match Op_id.State_table.find_opt docs tr.State_space.target with
        | None ->
          Op_id.State_table.add docs tr.State_space.target doc';
          Queue.push tr.State_space.target queue
        | Some existing ->
          if not (Document.equal existing doc') then
            invalid_arg
              (Format.asprintf
                 "Analysis.documents: paths to state %a disagree (%a vs %a) — \
                  the state-space is not confluent"
                 Op_id.Set.pp tr.State_space.target Document.pp existing
                 Document.pp doc'))
      (w.next s)
  done;
  List.map (fun s -> s, Op_id.State_table.find docs s) w.states

let document_at t ~initial s =
  match
    List.find_opt (fun (s', _) -> Op_id.Set.equal s s') (documents t ~initial)
  with
  | Some (_, doc) -> doc
  | None ->
    invalid_arg
      (Format.asprintf "Analysis.document_at: unknown state %a" Op_id.Set.pp s)

let paths ?(limit = 10_000) w ~src ~dst =
  let count = ref 0 in
  let rec go s acc =
    if Op_id.Set.equal s dst then begin
      incr count;
      if !count > limit then
        invalid_arg "Analysis.all_paths: too many paths";
      [ List.rev acc ]
    end
    else
      List.concat_map
        (fun tr ->
          (* States grow along transitions, so only transitions whose
             target stays below [dst] can be on a path to it. *)
          if Op_id.Set.subset tr.State_space.target dst then
            go tr.State_space.target (tr :: acc)
          else [])
        (w.next s)
  in
  go src []

let all_paths ?limit t ~src ~dst = paths ?limit (walk t) ~src ~dst

(* Reachability: [s'] is an ancestor of [s] iff a path leads from [s']
   to [s].  Since states are the sets of processed operations and
   transitions only add operations, reachability implies set
   inclusion; we still follow actual transitions (inclusion alone is
   not sufficient, cf. Example 8.2). *)
let descendants w s =
  let seen : unit Op_id.State_table.t = Op_id.State_table.create 16 in
  let rec go s =
    if not (Op_id.State_table.mem seen s) then begin
      Op_id.State_table.add seen s ();
      List.iter (fun tr -> go tr.State_space.target) (w.next s)
    end
  in
  go s;
  seen

let reaches w s1 s2 = Op_id.State_table.mem (descendants w s1) s2

let lcas w s1 s2 =
  let common = List.filter (fun s -> reaches w s s1 && reaches w s s2) w.states in
  List.filter
    (fun s ->
      not
        (List.exists
           (fun s' ->
             (not (Op_id.Set.equal s s'))
             && reaches w s s')
           common))
    common

let lowest_common_ancestors t s1 s2 = lcas (walk t) s1 s2

let check_nary t ~nclients =
  let bad =
    List.find_opt
      (fun (_, trs) -> List.length trs > nclients)
      (State_space.listing t)
  in
  match bad with
  | None -> Ok ()
  | Some (s, trs) ->
    Error
      (Format.asprintf "state %a has %d children, more than the %d clients"
         Op_id.Set.pp s (List.length trs) nclients)

let path_ops path = List.map (fun tr -> tr.State_space.orig) path

let check_simple_paths t =
  let exception Bad of string in
  let w = walk t in
  try
    List.iter
      (fun s ->
        List.iter
          (fun path ->
            let ops = path_ops path in
            let set = Op_id.Set.of_list ops in
            if Op_id.Set.cardinal set <> List.length ops then
              raise
                (Bad
                   (Format.asprintf
                      "a path from the root to %a repeats an operation"
                      Op_id.Set.pp s)))
          (paths w ~src:(State_space.root t) ~dst:s))
      w.states;
    Ok ()
  with Bad msg -> Error msg

let rec all_pairs = function
  | [] -> []
  | x :: rest -> List.map (fun y -> x, y) rest @ all_pairs rest

let check_unique_lca t =
  let exception Bad of string in
  let w = walk t in
  try
    List.iter
      (fun (s1, s2) ->
        match lcas w s1 s2 with
        | [ _ ] -> ()
        | lcas ->
          raise
            (Bad
               (Format.asprintf "states %a and %a have %d LCAs" Op_id.Set.pp s1
                  Op_id.Set.pp s2 (List.length lcas))))
      (all_pairs w.states);
    Ok ()
  with Bad msg -> Error msg

let check_disjoint_paths t =
  let exception Bad of string in
  let w = walk t in
  try
    List.iter
      (fun (s1, s2) ->
        match lcas w s1 s2 with
        | [ lca ] ->
          let ops_to s =
            List.map
              (fun path -> Op_id.Set.of_list (path_ops path))
              (paths w ~src:lca ~dst:s)
          in
          List.iter
            (fun o1 ->
              List.iter
                (fun o2 ->
                  if not (Op_id.Set.is_empty (Op_id.Set.inter o1 o2)) then
                    raise
                      (Bad
                         (Format.asprintf
                            "paths from the LCA %a to %a and %a share \
                             operations"
                            Op_id.Set.pp lca Op_id.Set.pp s1 Op_id.Set.pp s2)))
                (ops_to s2))
            (ops_to s1)
        | _ -> () (* reported by check_unique_lca *))
      (all_pairs w.states);
    Ok ()
  with Bad msg -> Error msg

let check_pairwise_compatibility t ~initial =
  let docs = documents t ~initial in
  let rec go = function
    | [] -> Ok ()
    | ((s1, d1), (s2, d2)) :: rest ->
      if Document.compatible d1 d2 then go rest
      else
        Error
          (Format.asprintf
             "states %a (%a) and %a (%a) are incompatible (Definition 8.2)"
             Op_id.Set.pp s1 Document.pp d1 Op_id.Set.pp s2 Document.pp d2)
  in
  go (all_pairs docs)

let check_all t ~nclients ~initial =
  let ( let* ) = Result.bind in
  let* () = check_nary t ~nclients in
  let* () = check_simple_paths t in
  let* () = check_unique_lca t in
  let* () = check_disjoint_paths t in
  let* () = check_pairwise_compatibility t ~initial in
  Ok ()

type stats = {
  states : int;
  transitions : int;
  depth : int;
  max_branching : int;
  nop_forms : int;
  width_per_level : (int * int) list;
}

let stats t =
  let listing = State_space.listing t in
  let states = List.map fst listing in
  let transitions, max_branching, nop_forms =
    List.fold_left
      (fun (total, widest, nops) (_, outgoing) ->
        let nops_here =
          List.length
            (List.filter (fun tr -> Op.is_nop tr.State_space.form) outgoing)
        in
        ( total + List.length outgoing,
          max widest (List.length outgoing),
          nops + nops_here ))
      (0, 0, 0) listing
  in
  let widths = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let level = Op_id.Set.cardinal s in
      Hashtbl.replace widths level
        (1 + Option.value (Hashtbl.find_opt widths level) ~default:0))
    states;
  {
    states = List.length states;
    transitions;
    depth = Op_id.Set.cardinal (State_space.final t);
    max_branching;
    nop_forms;
    width_per_level =
      (* Order-insensitive: the fold only collects, the sort fixes the
         order. *)
      List.sort
        (fun (l1, _) (l2, _) -> Int.compare l1 l2)
        ((Hashtbl.fold (fun k v acc -> (k, v) :: acc) widths [])
        [@lint.allow "hashtbl-iter"]);
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>states: %d@,transitions: %d@,depth: %d@,max branching: %d@,nop \
     forms: %d@,width per level: %a@]"
    s.states s.transitions s.depth s.max_branching s.nop_forms
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       (fun ppf (level, width) -> Format.fprintf ppf "%d:%d" level width))
    s.width_per_level
