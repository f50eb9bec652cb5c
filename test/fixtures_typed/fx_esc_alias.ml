(* Calls through module aliases: each cell is passed to [Fx_hold.keep]
   through an alias, and must be classified as a call of the aliased
   module would be (instance-confined), not as an external call's
   argument (stack-confined). *)
module H = Fx_hold

let keep_via_module tbl = H.keep tbl (ref 1)

let keep_via_let_module tbl =
  let module L = Fx_hold in
  L.keep tbl (ref 2)
