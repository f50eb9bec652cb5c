type t =
  | Serialized of int
  | Pending of int

let compare a b =
  match a, b with
  | Serialized x, Serialized y -> Int.compare x y
  | Pending x, Pending y -> Int.compare x y
  | Serialized _, Pending _ -> -1
  | Pending _, Serialized _ -> 1

let pp ppf = function
  | Serialized s -> Format.fprintf ppf "#%d" s
  | Pending g -> Format.fprintf ppf "pending.%d" g

let of_serials ~who ~own_client serials (id : Rlist_model.Op_id.t) =
  match Rlist_model.Op_id.Table.find_opt serials id with
  | Some serial -> Serialized serial
  (* Only the replica's own unacknowledged operations may lack a serial
     number (FIFO channels deliver every other operation with its
     serial). *)
  | None when Int.equal id.client own_client -> Pending id.seq
  | None ->
    invalid_arg
      (Format.asprintf "%s %d: no order key for foreign operation %a" who
         own_client Rlist_model.Op_id.pp id)
