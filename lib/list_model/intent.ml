type t =
  | Insert of char * int
  | Delete of int
  | Read

let valid_for ~doc_length = function
  | Insert (_, p) -> 0 <= p && p <= doc_length
  | Delete p -> 0 <= p && p < doc_length
  | Read -> true

let pp ppf = function
  | Insert (c, p) -> Format.fprintf ppf "Insert(%c, %d)" c p
  | Delete p -> Format.fprintf ppf "Delete(%d)" p
  | Read -> Format.pp_print_string ppf "Read"
