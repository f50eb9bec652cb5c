open Rlist_model

type action =
  | Ins of Element.t * int
  | Del of Element.t * int
  | Nop

type t = {
  id : Op_id.t;
  action : action;
}

(* The [invalid_arg]s below are precondition guards at the smart-
   constructor/application API boundary, not partial cases inside the
   transform functions — the totality the exn-partial pass protects. *)

let make_ins ~id elt pos =
  if pos < 0 then
    (invalid_arg "Op.make_ins: negative position")
    [@lint.allow "exn-partial"];
  { id; action = Ins (elt, pos) }

let make_del ~id elt pos =
  if pos < 0 then
    (invalid_arg "Op.make_del: negative position")
    [@lint.allow "exn-partial"];
  { id; action = Del (elt, pos) }

let nop ~id = { id; action = Nop }

let is_nop t =
  match t.action with
  | Nop -> true
  | Ins _ | Del _ -> false

let is_del t =
  match t.action with
  | Del _ -> true
  | Ins _ | Nop -> false

let element t =
  match t.action with
  | Ins (e, _) | Del (e, _) -> Some e
  | Nop -> None

let position t =
  match t.action with
  | Ins (_, p) | Del (_, p) -> Some p
  | Nop -> None

let no_pos = -1

let pos t =
  match t.action with
  | Ins (_, p) | Del (_, p) -> p
  | Nop -> no_pos

let at t p =
  match t.action with
  | Ins (e, q) ->
    if p = q then t
    else if p = no_pos then nop ~id:t.id
    else make_ins ~id:t.id e p
  | Del (e, q) ->
    if p = q then t
    else if p = no_pos then nop ~id:t.id
    else make_del ~id:t.id e p
  | Nop -> t

let apply t doc =
  match t.action with
  | Nop -> doc
  | Ins (e, p) -> Document.insert doc ~pos:p e
  | Del (e, p) ->
    let deleted, doc' = Document.delete doc ~pos:p in
    if not (Element.equal deleted e) then
      (invalid_arg
         (Format.asprintf
            "Op.apply: delete %a at position %d found %a — operation applied \
             outside its context"
            Element.pp e p Element.pp deleted))
      [@lint.allow "exn-partial"];
    doc'

let compare_action a b =
  match a, b with
  | Ins (e1, p1), Ins (e2, p2) | Del (e1, p1), Del (e2, p2) -> (
    match Element.compare e1 e2 with
    | 0 -> Int.compare p1 p2
    | c -> c)
  | Ins _, (Del _ | Nop) -> -1
  | Del _, Nop -> -1
  | Del _, Ins _ -> 1
  | Nop, (Ins _ | Del _) -> 1
  | Nop, Nop -> 0

let compare a b =
  match Op_id.compare a.id b.id with
  | 0 -> compare_action a.action b.action
  | c -> c

let equal a b = compare a b = 0

let pp ppf t =
  match t.action with
  | Ins (e, p) -> Format.fprintf ppf "Ins(%a, %d)" Element.pp e p
  | Del (e, p) -> Format.fprintf ppf "Del(%a, %d)" Element.pp e p
  | Nop -> Format.fprintf ppf "Nop<%a>" Op_id.pp t.id

let to_string t = Format.asprintf "%a" pp t
