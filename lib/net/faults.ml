type spec = {
  drop : float;
  duplicate : float;
  reorder : float;
  delay : int;
  partition_period : int;
  partition_down : int;
}

let none =
  {
    drop = 0.0;
    duplicate = 0.0;
    reorder = 0.0;
    delay = 4;
    partition_period = 0;
    partition_down = 0;
  }

let validate spec =
  let prob name p =
    (* Written so that NaN, which fails every comparison, is refused. *)
    if not (p >= 0.0 && p <= 1.0) then
      Error (Printf.sprintf "%s must be in [0,1], got %g" name p)
    else Ok ()
  in
  let ( let* ) = Result.bind in
  let* () = prob "drop" spec.drop in
  let* () = prob "duplicate" spec.duplicate in
  let* () = prob "reorder" spec.reorder in
  if spec.delay < 1 then Error "delay must be >= 1 tick"
  else if spec.partition_period < 0 || spec.partition_down < 0 then
    Error "partition durations must be >= 0"
  else if
    spec.partition_period > 0 && spec.partition_down >= spec.partition_period
  then Error "partition down-time must be shorter than its period"
  else if spec.partition_period = 0 && spec.partition_down > 0 then
    Error "partition down-time needs a period"
  else Ok spec

(* Every link is down during the first [partition_down] ticks of each
   [partition_period]-tick window. *)
let down_at spec ~tick =
  spec.partition_period > 0 && tick mod spec.partition_period < spec.partition_down

let presets =
  [
    "none", none;
    "drop", { none with drop = 0.25 };
    "dup", { none with duplicate = 0.3 };
    "reorder", { none with reorder = 0.5; delay = 4 };
    ( "partition",
      { none with drop = 0.05; partition_period = 60; partition_down = 20 } );
    ( "chaos",
      {
        drop = 0.3;
        duplicate = 0.15;
        reorder = 0.3;
        delay = 6;
        partition_period = 80;
        partition_down = 20;
      } );
    ( "heavy-loss",
      { none with drop = 0.5; duplicate = 0.1; reorder = 0.3; delay = 4 } );
  ]

let preset name = List.assoc_opt name presets

let of_string text =
  match preset text with
  | Some spec -> Ok spec
  | None -> (
    let parse_field spec field =
      match String.split_on_char '=' field with
      | [ key; value ] -> (
        let float_field f =
          match float_of_string_opt value with
          | Some v -> Ok (f v)
          | None -> Error (Printf.sprintf "bad number %S for %s" value key)
        in
        let int_field f =
          match int_of_string_opt value with
          | Some v -> Ok (f v)
          | None -> Error (Printf.sprintf "bad integer %S for %s" value key)
        in
        match key with
        | "drop" -> float_field (fun v -> { spec with drop = v })
        | "dup" | "duplicate" -> float_field (fun v -> { spec with duplicate = v })
        | "reorder" -> float_field (fun v -> { spec with reorder = v })
        | "delay" -> int_field (fun v -> { spec with delay = v })
        | "partition" -> (
          (* partition=PERIOD:DOWN *)
          match String.split_on_char ':' value with
          | [ p; d ] -> (
            match int_of_string_opt p, int_of_string_opt d with
            | Some p, Some d ->
              Ok { spec with partition_period = p; partition_down = d }
            | _ -> Error (Printf.sprintf "bad partition window %S" value))
          | _ ->
            Error
              (Printf.sprintf "partition wants PERIOD:DOWN ticks, got %S" value))
        | _ -> Error (Printf.sprintf "unknown fault field %S" key))
      | _ -> Error (Printf.sprintf "expected key=value, got %S" field)
    in
    let rec go spec = function
      | [] -> validate spec
      | field :: rest -> (
        match parse_field spec (String.trim field) with
        | Ok spec -> go spec rest
        | Error _ as e -> e)
    in
    match String.split_on_char ',' text with
    | [ "" ] -> Error "empty fault spec"
    | fields -> go none fields)

(* The shortest of 15, 16 or 17 significant digits that reads back as
   the same float, so a recorded spec replays exactly. *)
let float_to_string x =
  let exact digits =
    let text = Printf.sprintf "%.*g" digits x in
    if Float.equal (float_of_string text) x then Some text else None
  in
  match exact 15 with
  | Some text -> text
  | None -> (
    match exact 16 with Some text -> text | None -> Printf.sprintf "%.17g" x)

let to_string spec =
  let prob key p =
    if p > 0.0 then [ key ^ "=" ^ float_to_string p ] else []
  in
  let fields =
    List.concat
      [
        prob "drop" spec.drop;
        prob "dup" spec.duplicate;
        prob "reorder" spec.reorder;
        (* [delay] only matters under reordering, but a non-default
           value is printed anyway so the spec reads back whole. *)
        (if spec.reorder > 0.0 || spec.delay <> none.delay then
           [ Printf.sprintf "delay=%d" spec.delay ]
         else []);
        (if spec.partition_period > 0 then
           [
             Printf.sprintf "partition=%d:%d" spec.partition_period
               spec.partition_down;
           ]
         else []);
      ]
  in
  match fields with [] -> "none" | fields -> String.concat "," fields

let pp ppf spec = Format.pp_print_string ppf (to_string spec)
