(* One of two units with the same layout (see fx_twin_a.ml): their
   module-level bindings carry equal ident stamps, so the call graph
   must tell them apart by unit. *)
let helper n = n + 1

let server_receive n = helper n
