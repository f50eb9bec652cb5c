open Rlist_model

type t = Op_id.Set.t

let empty = Op_id.Set.empty

let extend ctx op = Op_id.Set.add op.Op.id ctx

let mem ctx op = Op_id.Set.mem op.Op.id ctx

let equal = Op_id.Set.equal

let subset = Op_id.Set.subset

type op_in_context = {
  op : Op.t;
  ctx : t;
}

let with_context op ~ctx =
  (* Precondition guard at the API boundary, not a transform-path
     partial case: a caller pairing an operation with its own context
     is a programming error, never a reachable transform state. *)
  if Op_id.Set.mem op.Op.id ctx then
    (invalid_arg "Context.with_context: operation is inside its own context")
    [@lint.allow "exn-partial"];
  { op; ctx }

let pp = Op_id.Set.pp
