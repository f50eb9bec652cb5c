type policy = {
  every_ops : int;
  retain_keys : int;
  snapshot_every : int;
}

let default = { every_ops = 64; retain_keys = 64; snapshot_every = 4 }

let to_string p =
  Printf.sprintf "ops=%d,retain=%d,snap=%d" p.every_ops p.retain_keys
    p.snapshot_every

let of_string s =
  let s = String.trim s in
  if s = "default" then Ok default
  else begin
    let fields = String.split_on_char ',' s in
    let parse acc field =
      match acc with
      | Error _ as e -> e
      | Ok (ops, retain, snap) -> (
        match String.index_opt field '=' with
        | None -> Error (Printf.sprintf "gc policy: expected key=value in %S" field)
        | Some i -> (
          let key = String.sub field 0 i in
          let value = String.sub field (i + 1) (String.length field - i - 1) in
          match int_of_string_opt (String.trim value) with
          | None ->
            Error (Printf.sprintf "gc policy: %S is not an integer" value)
          | Some n when n < 0 ->
            Error (Printf.sprintf "gc policy: %s must be non-negative" key)
          | Some n -> (
            match String.trim key with
            | "ops" when n > 0 -> Ok (Some n, retain, snap)
            | "ops" -> Error "gc policy: ops must be positive"
            | "retain" -> Ok (ops, Some n, snap)
            | "snap" -> Ok (ops, retain, Some n)
            | k -> Error (Printf.sprintf "gc policy: unknown key %S" k))))
    in
    match List.fold_left parse (Ok (None, None, None)) fields with
    | Error _ as e -> e
    | Ok (None, _, _) -> Error "gc policy: ops= is required"
    | Ok (Some every_ops, retain, snap) ->
      Ok
        {
          every_ops;
          retain_keys = Option.value retain ~default:default.retain_keys;
          snapshot_every = Option.value snap ~default:default.snapshot_every;
        }
  end

let pp ppf p = Format.pp_print_string ppf (to_string p)

type stats = {
  cycles : int;
  reclaimed_states : int;
  reclaimed_log : int;
  reclaimed_keys : int;
  heartbeats : int;
  skipped_heartbeats : int;
  stables_delivered : int;
  skipped_stables : int;
  snapshots : int;
  last_snapshot_bytes : int;
  meta_peak : int;
}

let stats_fields s =
  [
    "cycles", s.cycles;
    "reclaimed_states", s.reclaimed_states;
    "reclaimed_log", s.reclaimed_log;
    "reclaimed_keys", s.reclaimed_keys;
    "heartbeats", s.heartbeats;
    "skipped_heartbeats", s.skipped_heartbeats;
    "stables_delivered", s.stables_delivered;
    "skipped_stables", s.skipped_stables;
    "snapshots", s.snapshots;
    "last_snapshot_bytes", s.last_snapshot_bytes;
    "meta_peak", s.meta_peak;
  ]

module Driver = struct
  type t = {
    d_policy : policy;
    mutable ops_since : int;
    mutable ops_since_snapshot : int;
    mutable in_cycle : bool;
    mutable s : stats;
  }

  let zero_stats =
    {
      cycles = 0;
      reclaimed_states = 0;
      reclaimed_log = 0;
      reclaimed_keys = 0;
      heartbeats = 0;
      skipped_heartbeats = 0;
      stables_delivered = 0;
      skipped_stables = 0;
      snapshots = 0;
      last_snapshot_bytes = 0;
      meta_peak = 0;
    }

  let create policy =
    {
      d_policy = policy;
      ops_since = 0;
      ops_since_snapshot = 0;
      in_cycle = false;
      s = zero_stats;
    }

  let policy t = t.d_policy

  let note_ops t n =
    t.ops_since <- t.ops_since + n;
    t.ops_since_snapshot <- t.ops_since_snapshot + n

  let due t = (not t.in_cycle) && t.ops_since >= t.d_policy.every_ops

  let begin_cycle t =
    t.in_cycle <- true;
    t.ops_since <- 0;
    t.s <- { t.s with cycles = t.s.cycles + 1 };
    t.s.cycles

  let note_heartbeat t = t.s <- { t.s with heartbeats = t.s.heartbeats + 1 }

  let note_skipped_heartbeat t =
    t.s <- { t.s with skipped_heartbeats = t.s.skipped_heartbeats + 1 }

  let note_stable t =
    t.s <- { t.s with stables_delivered = t.s.stables_delivered + 1 }

  let note_skipped_stable t =
    t.s <- { t.s with skipped_stables = t.s.skipped_stables + 1 }

  (* Serialization budget per operation: a snapshot of [b] bytes is
     only taken once [b / snapshot_byte_budget] operations have passed
     since the previous one.  Snapshot cost is proportional to the
     live {e document} (which legitimately grows with the edit
     history), so a fixed cycle cadence would make the amortized
     per-op cost grow with the horizon — the amortization keeps it a
     constant, the same log-vs-state tradeoff that gates compaction in
     Raft-style systems. *)
  let snapshot_byte_budget = 64

  let snapshot_due t =
    t.d_policy.snapshot_every > 0
    && t.s.cycles mod t.d_policy.snapshot_every = 0
    && t.ops_since_snapshot * snapshot_byte_budget >= t.s.last_snapshot_bytes

  let end_cycle t ~reclaimed_states ~reclaimed_log ~reclaimed_keys
      ~snapshot_bytes ~meta =
    t.in_cycle <- false;
    let snapshots, last_snapshot_bytes =
      match snapshot_bytes with
      | None -> t.s.snapshots, t.s.last_snapshot_bytes
      | Some bytes ->
        t.ops_since_snapshot <- 0;
        t.s.snapshots + 1, bytes
    in
    t.s <-
      {
        t.s with
        reclaimed_states = t.s.reclaimed_states + reclaimed_states;
        reclaimed_log = t.s.reclaimed_log + reclaimed_log;
        reclaimed_keys = t.s.reclaimed_keys + reclaimed_keys;
        snapshots;
        last_snapshot_bytes;
        meta_peak = max t.s.meta_peak meta;
      }

  let stats t = t.s
end
