open Rlist_model
module Metrics = Rlist_obs.Metrics
module Ev = Rlist_obs.Event
module Recorder = Rlist_obs.Recorder

type event =
  | Generate of int * Intent.t
  | Deliver of int * int

let pp_event ppf = function
  | Generate (i, intent) -> Format.fprintf ppf "p%d: %a" i Intent.pp intent
  | Deliver (src, dst) -> Format.fprintf ppf "deliver p%d->p%d" src dst

(* The full-mesh topology over {!Mesh}: one FIFO channel per ordered
   pair of distinct peers.  Observability slot [i - 1] is peer [i].
   Peer-to-peer protocols carry no ack-driven stable frontier (no
   [gc_support] analogue), so a GC policy drives the shim-level
   dedup-key pruning only. *)
module Make (P : P2p_protocol_intf.P2P_PROTOCOL) = struct
  type t = {
    mesh : Mesh.t;
    npeers : int;
    peers : P.peer array;  (* peer i at index i - 1 *)
    channels : P.message Mesh.chan option array array;
        (* channels.(src - 1).(dst - 1); [None] on the diagonal *)
    lanes : event Mesh.lane list;
    mutable buffered : Metrics.gauge option;
  }

  let pname i = "p" ^ string_of_int i

  let tap =
    Mesh.
      {
        sent = "p2p.msgs_broadcast";
        depth = "p2p.channel.depth";
        delivered = "p2p.deliveries";
        batch_size = None;
      }

  let create ?(initial = Document.empty) ?net ?(batching = false) ?gc
      ?fastpath ~npeers () =
    if npeers < 2 then invalid_arg "P2p_engine.create: need at least two peers";
    let fastpath =
      match fastpath with
      | Some fp -> fp
      | None -> Rlist_ot.Fastpath.create ()
    in
    let peers =
      Array.init npeers (fun i ->
          P.create_peer ~fastpath ~npeers ~id:(i + 1) ~initial)
    in
    let mesh =
      Mesh.create ~name:"P2p_engine" ?net ~batching ?gc ~history:true ~initial
        ~slots:npeers
        ~ot:(fun s -> P.ot_count peers.(s))
        ~meta:(fun s -> P.metadata_size peers.(s))
        ~document:(fun i -> P.document peers.(i - 1))
        ~visible:(fun i -> P.visible peers.(i - 1))
        ()
    in
    (* Registration order is tick order: row-major over (src, dst). *)
    let channels =
      Array.init npeers (fun s ->
          Array.init npeers (fun d ->
              if s = d then None
              else
                Some
                  (Mesh.chan mesh ~src:(pname (s + 1)) ~dst:(pname (d + 1))
                     ~op_id:P.message_op_id tap)))
    in
    let lanes =
      List.concat_map
        (fun s ->
          List.filter_map
            (fun d ->
              Option.map
                (fun ch -> Mesh.lane ch (Deliver (s + 1, d + 1)))
                channels.(s).(d))
            (List.init npeers Fun.id))
        (List.init npeers Fun.id)
    in
    { mesh; npeers; peers; channels; lanes; buffered = None }

  let npeers t = t.npeers

  let check_peer t i =
    if i < 1 || i > t.npeers then
      invalid_arg (Printf.sprintf "P2p_engine: peer %d out of range" i)

  let peer t i =
    check_peer t i;
    t.peers.(i - 1)

  let total_buffered t =
    Array.fold_left (fun sum p -> sum + P.buffered p) 0 t.peers

  let attach_obs t obs =
    Mesh.attach_obs t.mesh obs ~prefix:"p2p";
    t.buffered <- Some (Metrics.gauge obs.Rlist_obs.Obs.metrics "p2p.buffered")

  let obs t = Mesh.obs t.mesh

  let attach_recorder t r = Mesh.attach_recorder t.mesh r

  let clock t = Mesh.clock t.mesh

  let broadcast t ~from message =
    Array.iter
      (Option.iter (fun ch -> Mesh.post t.mesh ch message ()))
      t.channels.(from - 1)

  let apply_one t = function
    | Generate (i, intent) ->
      let peer = peer t i in
      let outcome, message =
        Mesh.generate t.mesh ~client:i ~slot:(i - 1) ~replica:(pname i) intent
          (fun () -> P.generate peer intent)
      in
      (if Mesh.tracing t.mesh then
         match outcome.op_id with
         | None -> ()
         | Some id ->
           Mesh.emit t.mesh
             (Ev.Apply
                {
                  replica = pname i;
                  op_id = Some (Op_id.to_string id);
                  doc_len = Document.length (P.document peer);
                  tick = clock t;
                }));
      Option.iter (broadcast t ~from:i) message
    | Deliver (src, dst) -> (
      check_peer t src;
      check_peer t dst;
      let peer = t.peers.(dst - 1) in
      match t.channels.(src - 1).(dst - 1) with
      | Some ch when Mesh.deliverable ch > 0 -> (
        match
          Mesh.deliver t.mesh ch ~slot:(dst - 1)
            (Recorder.Deliver_peer { src; dst }) (P.receive peer ~from:src)
        with
        | None -> ()
        | Some (_, reactions) ->
          Option.iter
            (fun g -> Metrics.set_gauge g (float_of_int (total_buffered t)))
            t.buffered;
          List.iter (broadcast t ~from:dst) reactions)
      | _ ->
        invalid_arg
          (Printf.sprintf "P2p_engine: channel p%d->p%d is empty" src dst))

  let apply_event t ev =
    apply_one t ev;
    Mesh.maybe_gc t.mesh ~compact:(fun _ _ -> 0, None) t

  let run t events = List.iter (apply_event t) events

  let pending_messages t = Mesh.pending_messages t.mesh

  let channel_depth t ~src ~dst =
    check_peer t src;
    check_peer t dst;
    Option.fold ~none:0 ~some:Mesh.pending t.channels.(src - 1).(dst - 1)

  (* Round-robin until no channel holds a message (reactions keep the
     loop going), ticking the clock whenever nothing is ready. *)
  let quiesce t = Mesh.quiesce t.mesh t.lanes (apply_event t)

  let document t i = P.document (peer t i)

  let converged t =
    let reference = P.document t.peers.(0) in
    Array.for_all (fun p -> Document.equal reference (P.document p)) t.peers

  let trace t = Mesh.trace t.mesh

  let total_ot_count t = Mesh.total_ot t.mesh

  let total_metadata_size t = Mesh.total_meta t.mesh

  let gc_stats t = Mesh.gc_stats t.mesh

  let run_random ?intent t ~rng ~params =
    Mesh.run_random t.mesh t.lanes ~apply:(apply_event t)
      ~generate:(fun i intent -> Generate (i, intent))
      ~writers:t.npeers
      ~doc_length:(fun i -> Document.length (document t i))
      ?intent ~rng params
end
