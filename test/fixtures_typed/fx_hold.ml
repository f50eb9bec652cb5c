(* The callee of the alias fixture: [keep] stores its value into the
   caller's table, so whatever is passed to it is instance-confined. *)
let keep (tbl : (int, int ref) Hashtbl.t) v = Hashtbl.replace tbl 0 v
