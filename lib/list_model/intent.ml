type t =
  | Insert of char * int
  | Delete of int
  | Read

let valid_for ~doc_length = function
  | Insert (_, p) -> 0 <= p && p <= doc_length
  | Delete p -> 0 <= p && p < doc_length
  | Read -> true

let to_string = function
  | Insert (c, p) -> Printf.sprintf "ins %c %d" c p
  | Delete p -> Printf.sprintf "del %d" p
  | Read -> "read"

(* By position: the inserted character may itself be a blank. *)
let of_string s =
  let n = String.length s in
  let pos from = int_of_string_opt (String.sub s from (n - from)) in
  match String.sub s 0 (min n 4) with
  | "read" when n = 4 -> Some Read
  | "del " -> Option.map (fun p -> Delete p) (pos 4)
  | "ins " when n > 6 && Char.equal s.[5] ' ' ->
    Option.map (fun p -> Insert (s.[4], p)) (pos 6)
  | _ -> None

let pp ppf = function
  | Insert (c, p) -> Format.fprintf ppf "Insert(%c, %d)" c p
  | Delete p -> Format.fprintf ppf "Delete(%d)" p
  | Read -> Format.pp_print_string ppf "Read"
