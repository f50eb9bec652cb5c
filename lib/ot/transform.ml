open Rlist_model

(* The transformation functions below adjust the position of [o1] to
   account for a concurrent [o2] applied first.  The cases follow the
   standard list-OT functions (Ellis & Gibbs 1989; Imine et al. 2006):

   - Ins/Ins: shift right if [o2] inserted strictly before, or at the
     same position with higher priority (the higher-priority element
     ends up leftmost).
   - Ins/Del: shift left if [o2] deleted strictly before.
   - Del/Ins: shift right if [o2] inserted at or before.
   - Del/Del: shift left if [o2] deleted strictly before; deleting the
     same position on the same state means deleting the same element,
     so the result is the idle operation Nop (footnote 10).

   The case analysis is written once, on positions: [o1] and [o2]
   contribute their kinds and elements, [p1] and [p2] the positions
   they stand at ([Op.no_pos]: a no-op).  A transformation never
   changes a kind or an element, so callers that keep one form per
   operation and track its position as an integer (the n-ary state
   space's ladder squares) transform without building any form. *)
let generic_pos ~tie_shifts ~strict (o1 : Op.t) p1 (o2 : Op.t) p2 =
  if p1 = Op.no_pos || p2 = Op.no_pos then p1
  else
    match o1.action, o2.action with
    | Op.Nop, _ | _, Op.Nop -> p1
    | Op.Ins (e1, _), Op.Ins (e2, _) ->
      if p1 < p2 then p1
      else if p1 > p2 then p1 + 1
      else if tie_shifts && Element.priority e1 e2 < 0 then p1 + 1
      else p1
    | Op.Ins _, Op.Del _ -> if p1 <= p2 then p1 else p1 - 1
    | Op.Del _, Op.Ins _ -> if p1 < p2 then p1 else p1 + 1
    | Op.Del (e1, _), Op.Del (e2, _) ->
      if p1 < p2 then p1
      else if p1 > p2 then p1 - 1
      else begin
        (* Same position on the same state: necessarily the same
           element.  Only the broken variant, whose contexts are wrong
           by design, can reach this case with distinct elements. *)
        if strict then assert (Element.equal e1 e2);
        Op.no_pos
      end

let xform_pos o1 p1 o2 p2 =
  generic_pos ~tie_shifts:true ~strict:true o1 p1 o2 p2

(* Pure: per-instance transform accounting lives with the caller —
   every state-space counts its own [ot_count] and the engines'
   [attach_obs] derives per-run transform metrics from those, so the
   old process-global [on_xform] tap (a shared-unsafe write under the
   multi-domain server, per the escape/confinement pass) is gone.
   [Op.at] returns [o1] itself when its position did not move. *)
let xform o1 o2 = Op.at o1 (xform_pos o1 (Op.pos o1) o2 (Op.pos o2))

let xform_no_priority o1 o2 =
  Op.at o1
    (generic_pos ~tie_shifts:false ~strict:false o1 (Op.pos o1) o2 (Op.pos o2))

let xform_pair o1 o2 = xform o1 o2, xform o2 o1

let xform_seq o l =
  let o', rev_l' =
    List.fold_left
      (fun (o, rev_l') ox ->
        let o', ox' = xform_pair o ox in
        o', ox' :: rev_l')
      (o, []) l
  in
  o', List.rev rev_l'

let check_cp2 o1 o2 o3 =
  let via_o1_first = xform (xform o3 o1) (xform o2 o1) in
  let via_o2_first = xform (xform o3 o2) (xform o1 o2) in
  Op.equal via_o1_first via_o2_first

let check_cp1 doc o1 o2 =
  let o1', o2' = xform_pair o1 o2 in
  let left = Op.apply o2' (Op.apply o1 doc) in
  let right = Op.apply o1' (Op.apply o2 doc) in
  Document.equal left right
