open Rlist_model

type t = {
  (* Adjacency by element identity; elements are recoverable through
     [repr]. *)
  succ : Op_id.Set.t Op_id.Map.t;
  repr : Element.t Op_id.Map.t;
}

let empty = { succ = Op_id.Map.empty; repr = Op_id.Map.empty }

let add_node t e =
  let id = e.Element.id in
  {
    succ =
      (if Op_id.Map.mem id t.succ then t.succ
       else Op_id.Map.add id Op_id.Set.empty t.succ);
    repr = Op_id.Map.add id e t.repr;
  }

let add_edge t a b =
  let t = add_node (add_node t a) b in
  let ida = a.Element.id and idb = b.Element.id in
  let old = Op_id.Map.find ida t.succ in
  { t with succ = Op_id.Map.add ida (Op_id.Set.add idb old) t.succ }

let of_documents docs =
  List.fold_left
    (fun t doc ->
      let t = Document.fold add_node t doc in
      List.fold_left
        (fun t (a, b) -> add_edge t a b)
        t (Document.order_pairs doc))
    empty docs

let num_nodes t = Op_id.Map.cardinal t.succ

let mem_edge t a b =
  match Op_id.Map.find_opt a.Element.id t.succ with
  | None -> false
  | Some s -> Op_id.Set.mem b.Element.id s

(* Colored depth-first search: White = unvisited, Gray = on the current
   path, Black = done.  A Gray successor closes a cycle. *)
type color =
  | White
  | Gray
  | Black

let find_cycle t =
  let color = Op_id.Table.create 64 in
  let get id = Option.value (Op_id.Table.find_opt color id) ~default:White in
  let exception Cycle of Op_id.t list in
  let rec visit path id =
    match get id with
    | Black -> ()
    | Gray ->
      (* [path] holds the Gray chain, most recent first; the cycle is
         the segment of [path] up to (and including) [id]. *)
      let rec take acc = function
        | [] -> acc
        | x :: _ when Op_id.equal x id -> x :: acc
        | x :: rest -> take (x :: acc) rest
      in
      raise (Cycle (take [] path))
    | White ->
      Op_id.Table.replace color id Gray;
      let succs =
        Option.value (Op_id.Map.find_opt id t.succ) ~default:Op_id.Set.empty
      in
      Op_id.Set.iter (fun s -> visit (id :: path) s) succs;
      Op_id.Table.replace color id Black
  in
  try
    Op_id.Map.iter (fun id _ -> visit [] id) t.succ;
    None
  with Cycle ids ->
    Some (List.map (fun id -> Op_id.Map.find id t.repr) ids)

let linear_extension t =
  match find_cycle t with
  | Some _ -> None
  | None ->
    (* Depth-first post-order yields a reverse topological sort. *)
    let visited = Op_id.Table.create 64 in
    let out = ref [] in
    let rec visit id =
      if not (Op_id.Table.mem visited id) then begin
        Op_id.Table.replace visited id ();
        let succs =
          Option.value (Op_id.Map.find_opt id t.succ) ~default:Op_id.Set.empty
        in
        Op_id.Set.iter visit succs;
        out := Op_id.Map.find id t.repr :: !out
      end
    in
    Op_id.Map.iter (fun id _ -> visit id) t.succ;
    Some !out

let incompatibility_witness d1 d2 =
  (* Both restrictions to the common elements must agree position by
     position (cf. Document.compatible); the first disagreement gives
     the witnessing pair. *)
  let common1 =
    List.filter (fun e -> Document.mem d2 e) (Document.elements d1)
  in
  let common2 =
    List.filter (fun e -> Document.mem d1 e) (Document.elements d2)
  in
  let rec first_diff l1 l2 =
    match l1, l2 with
    | [], [] -> None
    | a :: r1, b :: r2 ->
      if Element.equal a b then first_diff r1 r2 else Some (a, b)
    | _ -> assert false (* same element sets, same lengths *)
  in
  first_diff common1 common2

let first_incompatible docs =
  let rec pairs = function
    | [] -> None
    | d :: rest -> (
      match
        List.find_map
          (fun d' ->
            match incompatibility_witness d d' with
            | Some (a, b) -> Some (d, d', a, b)
            | None -> None)
          rest
      with
      | Some _ as found -> found
      | None -> pairs rest)
  in
  pairs docs
