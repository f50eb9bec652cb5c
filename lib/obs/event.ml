(* See event.mli. *)

type replica = string

type t =
  | Generate of {
      replica : replica;
      op_id : string option;
      intent : string;
      queue : int;
      tick : int;
    }
  | Send of {
      src : replica;
      dst : replica;
      op_id : string option;
      bytes : int;
      queue : int;
      tick : int;
    }
  | Deliver of {
      replica : replica;
      src : replica;
      op_id : string option;
      transforms : int;
      queue : int;
      tick : int;
    }
  | Transform of {
      replica : replica;
      count : int;
    }
  | Apply of {
      replica : replica;
      op_id : string option;
      doc_len : int;
      tick : int;
    }
  | Wire of {
      channel : string;
      action : string;
      wseq : int;
      info : int;
      tick : int;
    }
  | State_space_grow of {
      replica : replica;
      level : int;
      states : int;
      transitions : int;
    }
  | Span of {
      name : string;
      dur_ns : float;
    }
  | Gc_begin of {
      cycle : int;
      trigger : string;
      meta : int;
      tick : int;
    }
  | Gc_end of {
      cycle : int;
      reclaimed_states : int;
      reclaimed_log : int;
      reclaimed_keys : int;
      meta : int;
      snapshot_bytes : int;
      skipped : int;
      tick : int;
    }

let kind = function
  | Generate _ -> "generate"
  | Send _ -> "send"
  | Deliver _ -> "deliver"
  | Transform _ -> "transform"
  | Apply _ -> "apply"
  | Wire _ -> "wire"
  | State_space_grow _ -> "state_space_grow"
  | Span _ -> "span"
  | Gc_begin _ -> "gc_begin"
  | Gc_end _ -> "gc_end"

let op_id = function
  | Generate { op_id; _ } | Send { op_id; _ } | Deliver { op_id; _ }
  | Apply { op_id; _ } ->
    op_id
  | Transform _ | Wire _ | State_space_grow _ | Span _ | Gc_begin _ | Gc_end _
    ->
    None

let tick = function
  | Generate { tick; _ } | Send { tick; _ } | Deliver { tick; _ }
  | Apply { tick; _ } | Wire { tick; _ } | Gc_begin { tick; _ }
  | Gc_end { tick; _ } ->
    Some tick
  | Transform _ | State_space_grow _ | Span _ -> None

let to_jsonl ~seq e =
  let s k v = (k, Json.Str v) and i k v = (k, Json.Int v) in
  let op v = ("op", Json.opt (fun id -> Json.Str id) v) in
  let body =
    match e with
    | Generate { replica; op_id; intent; queue; tick } ->
      [ s "replica" replica; op op_id; s "intent" intent; i "queue" queue;
        i "tick" tick ]
    | Send { src; dst; op_id; bytes; queue; tick } ->
      [ s "src" src; s "dst" dst; op op_id; i "bytes" bytes; i "queue" queue;
        i "tick" tick ]
    | Deliver { replica; src; op_id; transforms; queue; tick } ->
      [ s "replica" replica; s "src" src; op op_id;
        i "transforms" transforms; i "queue" queue; i "tick" tick ]
    | Transform { replica; count } -> [ s "replica" replica; i "count" count ]
    | Apply { replica; op_id; doc_len; tick } ->
      [ s "replica" replica; op op_id; i "doc_len" doc_len; i "tick" tick ]
    | Wire { channel; action; wseq; info; tick } ->
      [ s "channel" channel; s "action" action; i "wseq" wseq; i "info" info;
        i "tick" tick ]
    | State_space_grow { replica; level; states; transitions } ->
      [ s "replica" replica; i "level" level; i "states" states;
        i "transitions" transitions ]
    | Span { name; dur_ns } -> [ s "name" name; ("dur_ns", Fixed (0, dur_ns)) ]
    | Gc_begin { cycle; trigger; meta; tick } ->
      [ i "cycle" cycle; s "trigger" trigger; i "meta" meta; i "tick" tick ]
    | Gc_end g ->
      [ i "cycle" g.cycle; i "reclaimed_states" g.reclaimed_states;
        i "reclaimed_log" g.reclaimed_log; i "reclaimed_keys" g.reclaimed_keys;
        i "meta" g.meta; i "snapshot_bytes" g.snapshot_bytes;
        i "skipped" g.skipped; i "tick" g.tick ]
  in
  Json.to_string (Obj (i "seq" seq :: s "type" (kind e) :: body))

let pp ppf e = Format.pp_print_string ppf (to_jsonl ~seq:0 e)

(* --- JSONL decoding ------------------------------------------------ *)

exception Bad_line

(* The decoder's one raise: {!of_jsonl} catches [Bad_line] around the
   whole decoding, so it never raises. *)
let bad_line () = (raise Bad_line) [@lint.allow "exn-partial"]

let field j key =
  match Json.member key j with Some v -> v | None -> bad_line ()

let fstr j key = match field j key with Json.Str s -> s | _ -> bad_line ()

let fint j key = match field j key with Json.Int n -> n | _ -> bad_line ()

(* [null] is how the writer prints a non-finite float. *)
let ffloat j key =
  match field j key with
  | Json.Int n -> float_of_int n
  | Json.Fixed (_, x) -> x
  | Json.Null -> Float.nan
  | _ -> bad_line ()

let fop j =
  match field j "op" with
  | Json.Str s -> Some s
  | Json.Null -> None
  | _ -> bad_line ()

let decode j =
  let s = fstr j and i = fint j in
  match s "type" with
  | "generate" ->
    Generate { replica = s "replica"; op_id = fop j; intent = s "intent";
               queue = i "queue"; tick = i "tick" }
  | "send" ->
    Send { src = s "src"; dst = s "dst"; op_id = fop j; bytes = i "bytes";
           queue = i "queue"; tick = i "tick" }
  | "deliver" ->
    Deliver { replica = s "replica"; src = s "src"; op_id = fop j;
              transforms = i "transforms"; queue = i "queue";
              tick = i "tick" }
  | "transform" -> Transform { replica = s "replica"; count = i "count" }
  | "apply" ->
    Apply { replica = s "replica"; op_id = fop j; doc_len = i "doc_len";
            tick = i "tick" }
  | "wire" ->
    Wire { channel = s "channel"; action = s "action"; wseq = i "wseq";
           info = i "info"; tick = i "tick" }
  | "state_space_grow" ->
    State_space_grow { replica = s "replica"; level = i "level";
                       states = i "states"; transitions = i "transitions" }
  | "span" -> Span { name = s "name"; dur_ns = ffloat j "dur_ns" }
  | "gc_begin" ->
    Gc_begin { cycle = i "cycle"; trigger = s "trigger"; meta = i "meta";
               tick = i "tick" }
  | "gc_end" ->
    Gc_end { cycle = i "cycle"; reclaimed_states = i "reclaimed_states";
             reclaimed_log = i "reclaimed_log";
             reclaimed_keys = i "reclaimed_keys"; meta = i "meta";
             snapshot_bytes = i "snapshot_bytes"; skipped = i "skipped";
             tick = i "tick" }
  | _ -> bad_line ()

let of_jsonl line =
  match Json.of_string line with
  | Error _ -> None
  | Ok j -> ( try Some (fint j "seq", decode j) with Bad_line -> None)
