type t = {
  mutable payloads : int;
  mutable transmissions : int;
  mutable op_payloads : int;
  mutable op_transmissions : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable partition_drops : int;
  mutable partitions_healed : int;
  mutable retransmits : int;
  mutable dup_dropped : int;
  mutable opid_dup_dropped : int;
  mutable out_of_order : int;
  mutable acks_sent : int;
  mutable acks_dropped : int;
  mutable delivered : int;
  mutable contract_violations : int;
  mutable ticks : int;
}

let create () =
  {
    payloads = 0;
    transmissions = 0;
    op_payloads = 0;
    op_transmissions = 0;
    dropped = 0;
    duplicated = 0;
    reordered = 0;
    partition_drops = 0;
    partitions_healed = 0;
    retransmits = 0;
    dup_dropped = 0;
    opid_dup_dropped = 0;
    out_of_order = 0;
    acks_sent = 0;
    acks_dropped = 0;
    delivered = 0;
    contract_violations = 0;
    ticks = 0;
  }

(* Per-operation, not per-message: a batch message counts once per
   operation it carries, on both sides of the ratio, so the figure
   stays comparable whether or not the engine coalesces. *)
let amplification t =
  if t.op_payloads = 0 then 1.0
  else float_of_int t.op_transmissions /. float_of_int t.op_payloads

let fields t =
  [
    "payloads", t.payloads;
    "transmissions", t.transmissions;
    "op_payloads", t.op_payloads;
    "op_transmissions", t.op_transmissions;
    "dropped", t.dropped;
    "duplicated", t.duplicated;
    "reordered", t.reordered;
    "partition_drops", t.partition_drops;
    "partitions_healed", t.partitions_healed;
    "retransmits", t.retransmits;
    "dup_dropped", t.dup_dropped;
    "opid_dup_dropped", t.opid_dup_dropped;
    "out_of_order", t.out_of_order;
    "acks_sent", t.acks_sent;
    "acks_dropped", t.acks_dropped;
    "delivered", t.delivered;
    "contract_violations", t.contract_violations;
    "ticks", t.ticks;
  ]

(* Copy the counters into a metrics registry under the [net.] prefix.
   The counters are cumulative, so publish once per run (the soak
   driver does, after quiescence). *)
let publish t metrics =
  List.iter
    (fun (name, value) ->
      Rlist_obs.Metrics.add (Rlist_obs.Metrics.counter metrics ("net." ^ name)) value)
    (fields t);
  Rlist_obs.Metrics.set_gauge
    (Rlist_obs.Metrics.gauge metrics "net.amplification")
    (amplification t)

let to_json t =
  let open Rlist_obs.Json in
  Obj
    (List.map (fun (name, value) -> (name, Int value)) (fields t)
    @ [ ("amplification", Fixed (3, amplification t)) ])

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (name, value) ->
      if value > 0 then Format.fprintf ppf "%-20s %d@," name value)
    (fields t);
  Format.fprintf ppf "%-20s %.3f@]" "amplification" (amplification t)
