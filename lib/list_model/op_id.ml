type t = {
  client : int;
  seq : int;
}

let make ~client ~seq =
  if client < 0 then invalid_arg "Op_id.make: negative client";
  if seq < 1 then invalid_arg "Op_id.make: sequence numbers start at 1";
  { client; seq }

let initial ~seq = { client = 0; seq }

let is_initial t = t.client = 0

let compare a b =
  match Int.compare a.client b.client with
  | 0 -> Int.compare a.seq b.seq
  | c -> c

let equal a b = compare a b = 0

let hash t = (t.client * 1_000_003) lxor t.seq

let pp ppf t =
  if is_initial t then Format.fprintf ppf "init.%d" t.seq
  else Format.fprintf ppf "%d.%d" t.client t.seq

(* The bytes of [pp], built without a formatter. *)
let to_string t =
  if is_initial t then "init." ^ string_of_int t.seq
  else string_of_int t.client ^ "." ^ string_of_int t.seq

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = struct
  include Set.Make (Ord)

  let content_hash s =
    (* fold visits elements in ascending order: deterministic. *)
    fold (fun id acc -> (acc * 31) + hash id) s 0

  let pp ppf s =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         pp)
      (elements s)

  let canonical = elements
end

module Map = Map.Make (Ord)

module State_table = Hashtbl.Make (struct
  type nonrec t = Set.t

  let equal = Set.equal

  let hash = Set.content_hash
end)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  let hash = hash
end)
