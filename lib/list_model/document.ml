(* Rope-backed documents.

   The document is the hot data structure of every protocol family: all
   of them funnel through [Op.apply], which calls [insert]/[delete]/
   [nth] here.  The representation is a height-balanced binary tree
   (the same balancing discipline as the stdlib's [Map]) whose in-order
   traversal is the sequence; every node caches its subtree size, so
   positional access is O(log n) instead of the O(n) of the original
   linked-list representation (kept as {!Document_reference}, the
   testing oracle).

   Alongside the tree each version carries a lazy index keyed by
   element identity ([Op_id]): a multiset of the identifiers present in
   the document.  Only the checkers read it ([mem], [compatible],
   [has_duplicates]), so editing never touches it: a version builds its
   own index in O(n log n) on its first query and answers later queries
   in O(log n). *)

module Tree = struct
  type t =
    | Empty
    | Node of {
        l : t;
        v : Element.t;
        r : t;
        h : int;
        size : int;
      }

  let height = function
    | Empty -> 0
    | Node n -> n.h

  let size = function
    | Empty -> 0
    | Node n -> n.size

  let node l v r =
    Node { l; v; r; h = 1 + max (height l) (height r); size = 1 + size l + size r }

  (* Rebalance a tree whose children differ in height by at most 3
     (one insertion or deletion beyond the invariant), as in the
     stdlib's [Map.bal]. *)
  let bal l v r =
    let hl = height l and hr = height r in
    if hl > hr + 2 then
      match l with
      | Empty -> assert false
      | Node { l = ll; v = lv; r = lr; _ } ->
        if height ll >= height lr then node ll lv (node lr v r)
        else (
          match lr with
          | Empty -> assert false
          | Node { l = lrl; v = lrv; r = lrr; _ } ->
            node (node ll lv lrl) lrv (node lrr v r))
    else if hr > hl + 2 then
      match r with
      | Empty -> assert false
      | Node { l = rl; v = rv; r = rr; _ } ->
        if height rr >= height rl then node (node l v rl) rv rr
        else (
          match rl with
          | Empty -> assert false
          | Node { l = rll; v = rlv; r = rlr; _ } ->
            node (node l v rll) rlv (node rlr rv rr))
    else node l v r

  (* [i] is in [0, size t]. *)
  let rec insert_at t i e =
    match t with
    | Empty -> node Empty e Empty
    | Node { l; v; r; _ } ->
      let sl = size l in
      if i <= sl then bal (insert_at l i e) v r
      else bal l v (insert_at r (i - sl - 1) e)

  let rec min_elt = function
    | Empty -> assert false
    | Node { l = Empty; v; _ } -> v
    | Node { l; _ } -> min_elt l

  let rec remove_min = function
    | Empty -> assert false
    | Node { l = Empty; r; _ } -> r
    | Node { l; v; r; _ } -> bal (remove_min l) v r

  let merge l r =
    match l, r with
    | Empty, t | t, Empty -> t
    | _ -> bal l (min_elt r) (remove_min r)

  (* [i] is in [0, size t). *)
  let rec delete_at t i =
    match t with
    | Empty -> assert false
    | Node { l; v; r; _ } ->
      let sl = size l in
      if i < sl then
        let deleted, l' = delete_at l i in
        deleted, bal l' v r
      else if i > sl then
        let deleted, r' = delete_at r (i - sl - 1) in
        deleted, bal l v r'
      else v, merge l r

  let rec nth t i =
    match t with
    | Empty -> assert false
    | Node { l; v; r; _ } ->
      let sl = size l in
      if i < sl then nth l i else if i > sl then nth r (i - sl - 1) else v

  let rec iter f = function
    | Empty -> ()
    | Node { l; v; r; _ } ->
      iter f l;
      f v;
      iter f r

  let rec fold f acc = function
    | Empty -> acc
    | Node { l; v; r; _ } -> fold f (f (fold f acc l) v) r

  let rec seq_of t tail () =
    match t with
    | Empty -> tail ()
    | Node { l; v; r; _ } -> seq_of l (fun () -> Seq.Cons (v, seq_of r tail)) ()

  let to_seq t = seq_of t (fun () -> Seq.Nil)

  (* Build a perfectly balanced tree from a sub-array in O(n). *)
  let of_array a =
    let rec build lo hi =
      if lo >= hi then Empty
      else
        let mid = (lo + hi) / 2 in
        node (build lo mid) a.(mid) (build (mid + 1) hi)
    in
    build 0 (Array.length a)
end

(* Identifier multiset: id -> number of occurrences, plus the number
   of identifiers occurring more than once.  Well-formed documents
   never hold duplicates (Lemma 6.3), but [of_elements] is unrestricted
   and [has_duplicates] must observe them. *)
type index = {
  ids : int Op_id.Map.t;
  dups : int;
}

type t = {
  tree : Tree.t;
  (* Built from [tree] on the first query of this version; edits
     derive new versions without forcing it. *)
  index : index Lazy.t;
}

let length t = Tree.size t.tree

let is_empty t = length t = 0

let add_id idx id =
  match Op_id.Map.find_opt id idx.ids with
  | None -> { idx with ids = Op_id.Map.add id 1 idx.ids }
  | Some n ->
    {
      ids = Op_id.Map.add id (n + 1) idx.ids;
      dups = (if n = 1 then idx.dups + 1 else idx.dups);
    }

let empty_index = { ids = Op_id.Map.empty; dups = 0 }

let index_of_tree tree =
  Tree.fold (fun idx e -> add_id idx e.Element.id) empty_index tree

let with_tree tree = { tree; index = lazy (index_of_tree tree) }

let empty = { tree = Tree.Empty; index = Lazy.from_val empty_index }

let of_array a = with_tree (Tree.of_array a)

let of_string s =
  of_array
    (Array.init (String.length s) (fun i ->
         Element.make ~value:s.[i] ~id:(Op_id.initial ~seq:(i + 1))))

let of_elements es = of_array (Array.of_list es)

let elements t = List.rev (Tree.fold (fun acc e -> e :: acc) [] t.tree)

let iter f t = Tree.iter f t.tree

let fold f acc t = Tree.fold f acc t.tree

let to_seq t = Tree.to_seq t.tree

let to_string t =
  let b = Buffer.create (length t) in
  Tree.iter (fun e -> Buffer.add_char b e.Element.value) t.tree;
  Buffer.contents b

let nth t p =
  if p < 0 || p >= length t then
    invalid_arg
      (Printf.sprintf "Document.nth: position %d out of bounds (length %d)" p
         (length t));
  Tree.nth t.tree p

let insert t ~pos e =
  if pos < 0 || pos > length t then
    invalid_arg
      (Printf.sprintf "Document.insert: position %d out of bounds (length %d)"
         pos (length t));
  with_tree (Tree.insert_at t.tree pos e)

let delete t ~pos =
  if pos < 0 || pos >= length t then
    invalid_arg
      (Printf.sprintf "Document.delete: position %d out of bounds (length %d)"
         pos (length t));
  let deleted, tree = Tree.delete_at t.tree pos in
  deleted, with_tree tree

let mem t e = Op_id.Map.mem e.Element.id (Lazy.force t.index).ids

let index_of t e =
  if not (mem t e) then None
  else
    (* The version's id index answers presence; recovering the
       position still walks the sequence, but only when the element is
       actually there. *)
    let rec go offset = function
      | Tree.Empty -> None
      | Tree.Node { l; v; r; _ } -> (
        match go offset l with
        | Some _ as found -> found
        | None ->
          let pos = offset + Tree.size l in
          if Element.equal v e then Some pos else go (pos + 1) r)
    in
    go 0 t.tree

let compare a b =
  let rec go sa sb =
    match sa (), sb () with
    | Seq.Nil, Seq.Nil -> 0
    | Seq.Nil, Seq.Cons _ -> -1
    | Seq.Cons _, Seq.Nil -> 1
    | Seq.Cons (x, sa'), Seq.Cons (y, sb') -> (
      match Element.compare x y with
      | 0 -> go sa' sb'
      | c -> c)
  in
  go (to_seq a) (to_seq b)

let equal a b = length a = length b && compare a b = 0

let compatible d1 d2 =
  (* Restrict both documents to their common elements; compatibility
     holds iff the two restrictions are the same sequence.  Membership
     comes from the id index, so the whole check is O(n log n) rather
     than the O(n^2) of scanning one list per element. *)
  let common1 = List.filter (fun e -> mem d2 e) (elements d1) in
  let common2 = List.filter (fun e -> mem d1 e) (elements d2) in
  List.length common1 = List.length common2
  && List.for_all2 Element.equal common1 common2

let order_pairs t =
  let rec go acc = function
    | [] -> List.rev acc
    | x :: rest ->
      let acc = List.fold_left (fun acc y -> (x, y) :: acc) acc rest in
      go acc rest
  in
  go [] (elements t)

let has_duplicates t = (Lazy.force t.index).dups > 0

let pp ppf t = Format.fprintf ppf "%S" (to_string t)

let pp_detailed ppf t =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       Element.pp)
    (elements t)
