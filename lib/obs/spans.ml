(* See spans.mli. *)

type span = {
  sp_op : string;
  sp_origin : string option;
  sp_gen_tick : int;
  sp_gen_index : int;
  sp_sends : int;
  sp_batched_sends : int;
  sp_transforms : float;
  sp_applies : (string * int * int) list;
}

type summary = {
  su_events : int;
  su_ops : int;
  su_replicas : string list;
  su_incomplete : int;
  su_lag_unit : string;
  su_lag_p50 : float;
  su_lag_p90 : float;
  su_lag_p99 : float;
  su_lag_max : float;
  su_staleness : (string * float * float) list;
  su_transforms_total : int;
  su_tf_p50 : float;
  su_tf_p90 : float;
  su_tf_max : float;
  su_sends : int;
  su_wire : (string * int) list;
  su_amplification : float;
  su_timeline : (int * int * int) list;
  su_gc_cycles : int;
  su_gc_reclaimed : int;
  su_gc_skipped : int;
}

let split_ids id = String.split_on_char '+' id

(* Per-op accumulator.  Ops are keyed by their rendered identifier;
   an ordered list keeps output deterministic without iterating the
   table. *)
type acc = {
  mutable a_origin : string option;
  mutable a_gen_tick : int;
  mutable a_gen_index : int;
  mutable a_sends : int;
  mutable a_batched : int;
  mutable a_transforms : float;
  mutable a_applies : (string * int * int) list;  (* newest first *)
}

let build events =
  let tbl : (string, acc) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let get id =
    match Hashtbl.find_opt tbl id with
    | Some a -> a
    | None ->
      let a =
        {
          a_origin = None;
          a_gen_tick = -1;
          a_gen_index = -1;
          a_sends = 0;
          a_batched = 0;
          a_transforms = 0.0;
          a_applies = [];
        }
      in
      Hashtbl.add tbl id a;
      order := id :: !order;
      a
  in
  List.iteri
    (fun index e ->
      match e with
      | Event.Generate { replica; op_id = Some id; tick; _ } ->
        let a = get id in
        a.a_origin <- Some replica;
        a.a_gen_tick <- tick;
        a.a_gen_index <- index
      | Event.Send { op_id = Some id; _ } ->
        let members = split_ids id in
        let batched = List.length members > 1 in
        List.iter
          (fun m ->
            let a = get m in
            a.a_sends <- a.a_sends + 1;
            if batched then a.a_batched <- a.a_batched + 1)
          members
      | Event.Deliver { op_id = Some id; transforms; _ } ->
        let members = split_ids id in
        let share = float_of_int transforms /. float_of_int (List.length members) in
        List.iter (fun m -> (get m).a_transforms <- (get m).a_transforms +. share) members
      | Event.Apply { replica; op_id = Some id; tick; _ } ->
        let members = split_ids id in
        List.iter
          (fun m ->
            let a = get m in
            if not (List.exists (fun (r, _, _) -> String.equal r replica) a.a_applies)
            then a.a_applies <- (replica, tick, index) :: a.a_applies)
          members
      | _ -> ())
    events;
  List.rev_map
    (fun id ->
      let a = Hashtbl.find tbl id in
      {
        sp_op = id;
        sp_origin = a.a_origin;
        sp_gen_tick = a.a_gen_tick;
        sp_gen_index = a.a_gen_index;
        sp_sends = a.a_sends;
        sp_batched_sends = a.a_batched;
        sp_transforms = a.a_transforms;
        sp_applies = List.rev a.a_applies;
      })
    !order

let percentile sorted p =
  if Array.length sorted = 0 then 0.0 else Metrics.interpolate sorted p

let summarize events =
  let spans = build events in
  let replicas = ref [] in
  let note_replica r =
    if not (List.exists (String.equal r) !replicas) then
      replicas := r :: !replicas
  in
  List.iter
    (fun e ->
      match e with
      | Event.Generate { replica; _ }
      | Event.Apply { replica; _ }
      | Event.Deliver { replica; _ } ->
        note_replica replica
      | _ -> ())
    events;
  let replicas = List.rev !replicas in
  (* A tick-stamped run (anything through lib/net) measures lag on the
     virtual clock; a perfect-channel run has every tick at zero, so
     fall back to trace-position distance. *)
  let use_ticks =
    List.exists
      (fun s -> s.sp_gen_tick > 0 || List.exists (fun (_, t, _) -> t > 0) s.sp_applies)
      spans
  in
  let lag_of s =
    if s.sp_gen_index < 0 || s.sp_applies = [] then None
    else begin
      let last =
        List.fold_left
          (fun acc (_, t, i) -> max acc (if use_ticks then t else i))
          min_int s.sp_applies
      in
      let origin = if use_ticks then s.sp_gen_tick else s.sp_gen_index in
      Some (float_of_int (max 0 (last - origin)))
    end
  in
  let lags = List.filter_map lag_of spans in
  let incomplete =
    List.length (List.filter (fun s -> s.sp_gen_index >= 0 && s.sp_applies = []) spans)
  in
  let sorted_of l =
    let a = Array.of_list l in
    Array.sort Float.compare a;
    a
  in
  let lag_sorted = sorted_of lags in
  let tfs = List.map (fun s -> s.sp_transforms) spans in
  let tf_sorted = sorted_of tfs in
  (* Per-replica staleness: generation at the origin to application at
     that replica, averaged over the ops it applied. *)
  let staleness =
    List.map
      (fun r ->
        let samples =
          List.filter_map
            (fun s ->
              if s.sp_gen_index < 0 then None
              else
                List.find_map
                  (fun (rep, t, i) ->
                    if String.equal rep r then
                      Some
                        (float_of_int
                           (max 0
                              (if use_ticks then t - s.sp_gen_tick
                               else i - s.sp_gen_index)))
                    else None)
                  s.sp_applies)
            spans
        in
        let n = List.length samples in
        if n = 0 then (r, 0.0, 0.0)
        else
          ( r,
            List.fold_left ( +. ) 0.0 samples /. float_of_int n,
            List.fold_left max 0.0 samples ))
      replicas
  in
  let wire_counts = ref [] in
  let bump action =
    match List.assoc_opt action !wire_counts with
    | Some r -> incr r
    | None -> wire_counts := (action, ref 1) :: !wire_counts
  in
  let sends = ref 0 in
  let retransmits = ref 0 in
  let max_tick = ref 0 in
  let wire_incidents = ref [] in
  List.iter
    (fun e ->
      match e with
      | Event.Send _ -> incr sends
      | Event.Wire { action; tick; _ } ->
        bump action;
        max_tick := max !max_tick tick;
        if String.equal action "retransmit" then incr retransmits;
        if
          String.equal action "retransmit"
          || String.equal action "drop"
          || String.equal action "partition_drop"
        then wire_incidents := (tick, action) :: !wire_incidents
      | _ -> ())
    events;
  let wire =
    List.rev_map (fun (a, r) -> (a, !r)) !wire_counts
  in
  let amplification =
    if !sends = 0 then 1.0
    else float_of_int (!sends + !retransmits) /. float_of_int !sends
  in
  (* Retransmission/drop timeline: up to 20 tick buckets. *)
  let timeline =
    if !wire_incidents = [] then []
    else begin
      let width = max 1 ((!max_tick / 20) + 1) in
      let nbuckets = (!max_tick / width) + 1 in
      let rex = Array.make nbuckets 0 in
      let drops = Array.make nbuckets 0 in
      List.iter
        (fun (tick, action) ->
          let b = tick / width in
          if String.equal action "retransmit" then rex.(b) <- rex.(b) + 1
          else drops.(b) <- drops.(b) + 1)
        !wire_incidents;
      List.init nbuckets (fun i -> (i * width, rex.(i), drops.(i)))
    end
  in
  let tf_total =
    List.fold_left
      (fun acc e ->
        match e with
        | Event.Deliver { transforms; _ } -> acc + transforms
        | _ -> acc)
      0 events
  in
  (* GC attribution: cycle count and reclaimed metadata come from the
     gc_end events the engine emits at cycle boundaries. *)
  let gc_cycles = ref 0 in
  let gc_reclaimed = ref 0 in
  let gc_skipped = ref 0 in
  List.iter
    (fun e ->
      match e with
      | Event.Gc_end
          { reclaimed_states; reclaimed_log; reclaimed_keys; skipped; _ } ->
        incr gc_cycles;
        gc_reclaimed :=
          !gc_reclaimed + reclaimed_states + reclaimed_log + reclaimed_keys;
        gc_skipped := !gc_skipped + skipped
      | _ -> ())
    events;
  {
    su_events = List.length events;
    su_ops = List.length spans;
    su_replicas = replicas;
    su_incomplete = incomplete;
    su_lag_unit = (if use_ticks then "ticks" else "events");
    su_lag_p50 = percentile lag_sorted 50.0;
    su_lag_p90 = percentile lag_sorted 90.0;
    su_lag_p99 = percentile lag_sorted 99.0;
    su_lag_max = percentile lag_sorted 100.0;
    su_staleness = staleness;
    su_transforms_total = tf_total;
    su_tf_p50 = percentile tf_sorted 50.0;
    su_tf_p90 = percentile tf_sorted 90.0;
    su_tf_max = percentile tf_sorted 100.0;
    su_sends = !sends;
    su_wire = wire;
    su_amplification = amplification;
    su_timeline = timeline;
    su_gc_cycles = !gc_cycles;
    su_gc_reclaimed = !gc_reclaimed;
    su_gc_skipped = !gc_skipped;
  }

let pp_summary ppf s =
  Format.fprintf ppf "@[<v>--- trace report ---@,";
  Format.fprintf ppf "events: %d  ops: %d  replicas: %d  sends: %d@,"
    s.su_events s.su_ops (List.length s.su_replicas) s.su_sends;
  if s.su_incomplete > 0 then
    Format.fprintf ppf "ops never applied anywhere: %d@," s.su_incomplete;
  Format.fprintf ppf
    "convergence lag (%s): p50 %.1f  p90 %.1f  p99 %.1f  max %.1f@,"
    s.su_lag_unit s.su_lag_p50 s.su_lag_p90 s.su_lag_p99 s.su_lag_max;
  Format.fprintf ppf "staleness per replica (%s):@," s.su_lag_unit;
  List.iter
    (fun (r, mean, mx) ->
      Format.fprintf ppf "  %-8s mean %.1f  max %.1f@," r mean mx)
    s.su_staleness;
  Format.fprintf ppf
    "transforms: total %d  per-op p50 %.1f  p90 %.1f  max %.1f@,"
    s.su_transforms_total s.su_tf_p50 s.su_tf_p90 s.su_tf_max;
  if s.su_wire <> [] then begin
    Format.fprintf ppf "wire incidents:";
    List.iter (fun (a, n) -> Format.fprintf ppf " %s=%d" a n) s.su_wire;
    Format.fprintf ppf "@,";
    Format.fprintf ppf "amplification (sends+retransmits)/sends: %.2f@,"
      s.su_amplification
  end;
  if s.su_timeline <> [] then begin
    Format.fprintf ppf "retransmission timeline (tick: retransmits/drops):@,";
    List.iter
      (fun (t, rex, drops) ->
        if rex > 0 || drops > 0 then
          Format.fprintf ppf "  @@%-6d %d/%d@," t rex drops)
      s.su_timeline
  end;
  if s.su_gc_cycles > 0 then
    Format.fprintf ppf
      "gc: %d cycles, %d metadata reclaimed, %d busy-channel skips@,"
      s.su_gc_cycles s.su_gc_reclaimed s.su_gc_skipped;
  Format.fprintf ppf "@]"

let summary_to_json s =
  let open Json in
  let f2 x = Fixed (2, x) in
  Obj
    [ "events", Int s.su_events; "ops", Int s.su_ops; "sends", Int s.su_sends;
      "incomplete", Int s.su_incomplete; "lag_unit", Str s.su_lag_unit;
      ( "convergence_lag",
        Obj [ "p50", f2 s.su_lag_p50; "p90", f2 s.su_lag_p90;
              "p99", f2 s.su_lag_p99; "max", f2 s.su_lag_max ] );
      ( "staleness",
        Obj
          (List.map
             (fun (r, mean, mx) -> (r, Obj [ "mean", f2 mean; "max", f2 mx ]))
             s.su_staleness) );
      ( "transforms",
        Obj [ "total", Int s.su_transforms_total; "p50", f2 s.su_tf_p50;
              "p90", f2 s.su_tf_p90; "max", f2 s.su_tf_max ] );
      "wire", Obj (List.map (fun (a, n) -> (a, Int n)) s.su_wire);
      "amplification", Fixed (3, s.su_amplification);
      ( "timeline",
        List
          (List.map
             (fun (t, rex, drops) ->
               Obj
                 [ "tick", Int t; "retransmits", Int rex; "drops", Int drops ])
             s.su_timeline) );
      ( "gc",
        Obj [ "cycles", Int s.su_gc_cycles; "reclaimed", Int s.su_gc_reclaimed;
              "skipped", Int s.su_gc_skipped ] ) ]
