(* Seeded determinism bug: an entry point folding a table built by
   Hashtbl.Make, which visits bindings in bucket order just as
   Hashtbl.fold does.  The tables are per call, so there is no
   module-level state; a [let module] table is iterated off the entry
   paths. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x = x land max_int
end)

let server_receive_keys n =
  let t = Tbl.create 8 in
  for i = 1 to n do
    Tbl.replace t i ()
  done;
  Tbl.fold (fun k () acc -> k :: acc) t []

let local_keys n =
  let module Local = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal

    let hash x = x land max_int
  end) in
  let t = Local.create 8 in
  for i = 1 to n do
    Local.replace t i ()
  done;
  let keys = ref [] in
  Local.iter (fun k () -> keys := k :: !keys) t;
  !keys
