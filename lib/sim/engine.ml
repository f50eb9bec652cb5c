open Rlist_model
module Metrics = Rlist_obs.Metrics
module Ev = Rlist_obs.Event
module Recorder = Rlist_obs.Recorder

(* The star topology over {!Mesh}: one channel per direction per
   client, the server at the hub.  Observability slot 0 is the server,
   slot [i] client [i]. *)
module Make (P : Protocol_intf.PROTOCOL) = struct
  type t = {
    mesh : Mesh.t;
    nclients : int;
    server : P.server;
    clients : P.client array;  (* client i at index i - 1 *)
    to_server : P.c2s Mesh.chan array;  (* likewise *)
    to_client : P.s2c Mesh.chan array;
    drain_lanes : Schedule.event Mesh.lane list;
    random_lanes : Schedule.event Mesh.lane list;
    mutable behavior : (Replica_id.t * Document.t) list;  (* reversed *)
    mutable latency : Metrics.histogram option;
    mutable last_snapshot : string option;
  }

  let rname i = "c" ^ string_of_int i

  let tap dir ~delivered =
    Mesh.
      {
        sent = "engine.msgs_" ^ dir ^ "_sent";
        depth = "channel." ^ dir ^ ".depth";
        delivered = "engine.deliveries_to_" ^ delivered;
        batch_size = Some "engine.batch_size";
      }

  let create ?(initial = Document.empty) ?net ?(batching = false) ?gc
      ?(history = true) ?fastpath ~nclients () =
    if nclients < 1 then invalid_arg "Engine.create: need at least one client";
    let fastpath =
      match fastpath with
      | Some fp -> fp
      | None -> Rlist_ot.Fastpath.create ()
    in
    let server = P.create_server ~fastpath ~nclients ~initial in
    let clients =
      Array.init nclients (fun i ->
          P.create_client ~fastpath ~nclients ~id:(i + 1) ~initial)
    in
    let client i = clients.(i - 1) in
    let mesh =
      Mesh.create ~name:"Engine" ?net ~batching ?gc ~history ~initial
        ~slots:(nclients + 1)
        ~ot:(fun i ->
          if i = 0 then P.server_ot_count server
          else P.client_ot_count (client i))
        ~meta:(fun i ->
          if i = 0 then P.server_metadata_size server
          else P.client_metadata_size (client i))
        ~document:(fun i -> P.client_document (client i))
        ~visible:(fun i -> P.client_visible (client i))
        ()
    in
    (* Registration order is tick order: c1->server, server->c1, ... *)
    let c2s_tap = tap "c2s" ~delivered:"server"
    and s2c_tap = tap "s2c" ~delivered:"client" in
    let pairs =
      Array.init nclients (fun i ->
          let c = rname (i + 1) in
          let up =
            Mesh.chan mesh ~src:c ~dst:"server" ~op_id:P.c2s_op_id c2s_tap
          in
          up, Mesh.chan mesh ~src:"server" ~dst:c ~op_id:P.s2c_op_id s2c_tap)
    in
    let to_server = Array.map fst pairs and to_client = Array.map snd pairs in
    let to_server_lane i =
      Mesh.lane to_server.(i) (Schedule.Deliver_to_server (i + 1))
    and to_client_lane i =
      Mesh.lane to_client.(i) (Schedule.Deliver_to_client (i + 1))
    in
    {
      mesh;
      nclients;
      server;
      clients;
      to_server;
      to_client;
      (* Client messages first: only they can produce new (server)
         messages. *)
      drain_lanes =
        List.init nclients to_server_lane @ List.init nclients to_client_lane;
      random_lanes =
        List.concat_map
          (fun i -> [ to_client_lane i; to_server_lane i ])
          (List.init nclients Fun.id);
      behavior = [];
      latency = None;
      last_snapshot = None;
    }

  let nclients t = t.nclients

  let check_client t i =
    if i < 1 || i > t.nclients then
      invalid_arg (Printf.sprintf "Engine: client %d out of range" i)

  let client t i =
    check_client t i;
    t.clients.(i - 1)

  (* The channel a delivery event drains, which must hold something. *)
  let ready t chans i ~what =
    check_client t i;
    let ch = chans.(i - 1) in
    if Mesh.deliverable ch = 0 then
      invalid_arg
        (Printf.sprintf "Engine: no pending message %s client %d" what i);
    ch

  let pending_c2s t i = Mesh.pending t.to_server.(i - 1)

  let pending_s2c t i = Mesh.pending t.to_client.(i - 1)

  let attach_obs t obs =
    Mesh.attach_obs t.mesh obs ~prefix:"engine";
    t.latency <-
      Some
        (Metrics.histogram obs.Rlist_obs.Obs.metrics "engine.virtual_latency")

  let obs t = Mesh.obs t.mesh

  let attach_recorder t r = Mesh.attach_recorder t.mesh r

  let clock t = Mesh.clock t.mesh

  let record_behavior t replica doc =
    if Mesh.history t.mesh then t.behavior <- (replica, doc) :: t.behavior

  let emit_apply t ~replica ~op_id doc =
    Mesh.emit t.mesh
      (Ev.Apply
         { replica; op_id; doc_len = Document.length doc; tick = clock t })

  (* --- continuous GC: the ack-driven heartbeat step ------------------ *)

  let frontier_sum t
      (s : (P.client, P.server, P.c2s) Protocol_intf.gc_support) =
    Array.fold_left
      (fun sum c -> sum + s.gc_client_frontier c)
      (s.gc_server_frontier t.server) t.clients

  (* Heartbeats are injected and processed atomically only for clients
     whose c2s channel (transport + outbox) is empty, and the resulting
     [Stable] notifications are applied directly only to clients whose
     s2c channel is empty — busy channels are skipped and their pruning
     lags until a later cycle.  Under that restriction the synchronous
     exchange is equivalent to appending legal delivery events to the
     schedule (nothing in flight is overtaken).  The MC workload
     [Workload.compaction_race] checks the racy variant of this
     argument; DESIGN.md section 14 spells it out.  A periodic stable
     snapshot closes the step. *)
  let compact t d =
    match P.gc_support with
    | None -> 0, None
    | Some s ->
      let log_before = frontier_sum t s in
      for i = 1 to t.nclients do
        if pending_c2s t i = 0 then begin
          Rlist_gc.Driver.note_heartbeat d;
          let outgoing =
            P.server_receive t.server ~from:i
              (s.gc_heartbeat t.clients.(i - 1))
          in
          List.iter
            (fun (dest, m) ->
              check_client t dest;
              if pending_s2c t dest = 0 then begin
                P.client_receive t.clients.(dest - 1) m;
                Rlist_gc.Driver.note_stable d
              end
              else Rlist_gc.Driver.note_skipped_stable d)
            outgoing
        end
        else Rlist_gc.Driver.note_skipped_heartbeat d
      done;
      let snapshot_bytes =
        if Rlist_gc.Driver.snapshot_due d then begin
          let snap = s.gc_snapshot t.server in
          t.last_snapshot <- Some snap;
          Some (String.length snap)
        end
        else None
      in
      frontier_sum t s - log_before, snapshot_bytes

  (* --- events -------------------------------------------------------- *)

  let apply_one t = function
    | Schedule.Generate (i, intent) ->
      let client = client t i and ch = t.to_server.(i - 1) in
      let outcome, announce =
        Mesh.generate t.mesh ~client:i ~slot:i ~replica:(rname i) ~via:ch
          intent (fun () ->
            let outcome, msg = P.client_generate client intent in
            outcome, Option.map (Mesh.post t.mesh ch) msg)
      in
      Option.iter
        (fun announce ->
          announce ();
          if Mesh.tracing t.mesh then
            emit_apply t ~replica:(rname i)
              ~op_id:(Option.map Op_id.to_string outcome.op_id)
              (P.client_document client))
        announce;
      record_behavior t (Replica_id.Client i) (P.client_document client)
    | Schedule.Deliver_to_server i -> (
      let ch = ready t t.to_server i ~what:"from" in
      let receive batch =
        let outgoing =
          match batch with
          | [ m ] -> P.server_receive t.server ~from:i m
          | _ -> P.server_receive_batch t.server ~from:i batch
        in
        List.map
          (fun (dest, m) ->
            check_client t dest;
            Mesh.post t.mesh t.to_client.(dest - 1) m)
          outgoing
      in
      match
        Mesh.deliver t.mesh ch ~slot:0 (Recorder.Deliver_to_server i) receive
      with
      | None -> ()
      | Some (batch, announcements) ->
        if Mesh.tracing t.mesh then
          emit_apply t ~replica:"server" ~op_id:(Mesh.label ch batch)
            (P.server_document t.server);
        List.iter (fun announce -> announce ()) announcements;
        record_behavior t Replica_id.Server (P.server_document t.server))
    | Schedule.Deliver_to_client i -> (
      let ch = ready t t.to_client i ~what:"for" in
      let client = t.clients.(i - 1) in
      let receive = function
        | [ m ] -> P.client_receive client m
        | batch -> P.client_receive_batch client batch
      in
      match
        Mesh.deliver t.mesh ch ~slot:i (Recorder.Deliver_to_client i) receive
      with
      | None -> ()
      | Some (batch, ()) ->
        (if Mesh.tracing t.mesh then
           match Mesh.label ch batch with
           | None -> ()  (* pure acknowledgement: nothing was applied *)
           | Some _ as op_id ->
             emit_apply t ~replica:(rname i) ~op_id (P.client_document client));
        record_behavior t (Replica_id.Client i) (P.client_document client))

  (* Every simulation event, from any driver, funnels through here;
     the GC trigger check rides on the tail so a cycle can start at
     any point of the execution — which is what "continuous" means. *)
  let apply_event t ev =
    apply_one t ev;
    Mesh.maybe_gc t.mesh ~compact t

  let run t schedule = List.iter (apply_event t) schedule

  let inject_c2s t i m =
    check_client t i;
    Mesh.post t.mesh t.to_server.(i - 1) m ()

  let pending_messages t = Mesh.pending_messages t.mesh

  let pending_to_server t i =
    check_client t i;
    pending_c2s t i

  let pending_to_client t i =
    check_client t i;
    pending_s2c t i

  let quiesce t = Mesh.quiesce t.mesh t.drain_lanes (apply_event t)

  let client_document t i = P.client_document (client t i)

  (* Timed driver: a virtual-clock event heap.  Per-channel "last
     arrival" stamps keep deliveries FIFO under random latencies. *)
  let run_timed ?intent t ~rng ~params =
    let open Schedule in
    let exponential mean = -.mean *. log (1.0 -. Random.State.float rng 1.0) in
    (* pending timed actions, kept sorted by time *)
    let agenda = ref [] in
    let push time action =
      let rec insert = function
        | [] -> [ time, action ]
        | ((time', _) :: _) as all when time < time' -> (time, action) :: all
        | x :: rest -> x :: insert rest
      in
      agenda := insert !agenda
    in
    let last_c2s = Array.make (t.nclients + 1) 0.0 in
    let last_s2c = Array.make (t.nclients + 1) 0.0 in
    let remaining = ref params.t_updates in
    let performed = ref [] in
    let step ev =
      apply_event t ev;
      performed := ev :: !performed
    in
    let choose_intent i =
      let doc_length = Document.length (client_document t i) in
      match intent with
      | Some choose -> choose ~client:i ~doc_length
      | None ->
        if Random.State.float rng 1.0 < params.t_read_fraction then Intent.Read
        else if
          doc_length > 0
          && Random.State.float rng 1.0 < params.t_delete_fraction
        then Intent.Delete (Random.State.int rng doc_length)
        else
          (* Not [Mesh.random_intent]: arguments evaluate right to
             left, so the timed pins draw the position first. *)
          Intent.Insert
            ( Char.chr (Char.code 'a' + Random.State.int rng 26),
              Random.State.int rng (doc_length + 1) )
    in
    (* seed one future generation per client *)
    for i = 1 to t.nclients do
      push (exponential params.t_think_time) (`Gen i)
    done;
    let arrival last index now =
      let time = Float.max last.(index) (now +. exponential params.t_mean_latency) in
      (* strictly increasing per channel keeps the heap order stable *)
      let time = time +. 1e-9 in
      last.(index) <- time;
      Option.iter (fun h -> Metrics.observe h (time -. now)) t.latency;
      time
    in
    let rec loop () =
      match !agenda with
      | [] -> ()
      | (now, action) :: rest ->
        agenda := rest;
        Mesh.tick t.mesh;
        (match action with
        | `Gen i ->
          if !remaining > 0 then begin
            let intent = choose_intent i in
            (match intent with
            | Intent.Read -> ()
            | Intent.Insert _ | Intent.Delete _ -> decr remaining);
            let before = pending_c2s t i in
            step (Generate (i, intent));
            if pending_c2s t i > before then
              push (arrival last_c2s i now) (`C2s i);
            if !remaining > 0 then
              push (now +. exponential params.t_think_time) (`Gen i)
          end
        | `C2s i ->
          (* deliveries fan out a broadcast: schedule its arrivals.
             Under a fault model the payload may be delayed or lost;
             skip, the closing drain recovers it. *)
          if Mesh.deliverable t.to_server.(i - 1) > 0 then begin
            let before =
              Array.init t.nclients (fun j -> pending_s2c t (j + 1))
            in
            step (Deliver_to_server i);
            for j = 1 to t.nclients do
              for _ = 1 to pending_s2c t j - before.(j - 1) do
                push (arrival last_s2c j now) (`S2c j)
              done
            done
          end
        | `S2c i ->
          if Mesh.deliverable t.to_client.(i - 1) > 0 then
            step (Deliver_to_client i));
        loop ()
    in
    loop ();
    performed :=
      List.rev_append (Mesh.quiesce t.mesh t.drain_lanes (apply_event t))
        !performed;
    List.iter step (Schedule.final_reads ~nclients:t.nclients);
    List.rev !performed

  let run_random ?intent t ~rng ~params =
    Mesh.run_random t.mesh t.random_lanes ~apply:(apply_event t)
      ~generate:(fun i intent -> Schedule.Generate (i, intent))
      ~writers:t.nclients
      ~doc_length:(fun i -> Document.length (client_document t i))
      ?intent ~rng params

  let server_document t = P.server_document t.server

  let converged t =
    let reference =
      if P.server_is_replica then server_document t else client_document t 1
    in
    Array.for_all
      (fun c -> Document.equal reference (P.client_document c))
      t.clients

  let trace t = Mesh.trace t.mesh

  let behavior t = List.rev t.behavior

  let client_ot_count t i = P.client_ot_count (client t i)

  let server_ot_count t = P.server_ot_count t.server

  let total_ot_count t = Mesh.total_ot t.mesh

  let client_metadata_size t i = P.client_metadata_size (client t i)

  let server_metadata_size t = P.server_metadata_size t.server

  let total_metadata_size t = Mesh.total_meta t.mesh

  let server t = t.server

  let gc_stats t = Mesh.gc_stats t.mesh

  let gc_last_snapshot t = t.last_snapshot

  let dedup_keys t = Mesh.dedup_keys t.mesh
end
