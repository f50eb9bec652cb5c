open Rlist_model
module Obs = Rlist_obs.Obs
module Metrics = Rlist_obs.Metrics
module Ev = Rlist_obs.Event
module Recorder = Rlist_obs.Recorder
module Transport = Rlist_net.Transport

(* Channels stuck for this many consecutive virtual-clock ticks (no
   delivery possible anywhere, retransmission timers included) mean the
   network cannot quiesce — e.g. a permanent partition, or loss with
   the shim disabled. *)
let quiesce_fuel = 100_000

(* A retransmitted batch is suppressed as a unit, and a singleton's key
   is the operation's own. *)
let batch_key ids =
  match List.filter_map (Option.map Op_id.to_string) ids with
  | [] -> None
  | keys -> Some (String.concat "+" keys)

type tap = {
  sent : string;
  depth : string;
  delivered : string;
  batch_size : string option;
}

(* A tap's metric handles, resolved at [attach_obs]. *)
type handles = {
  h_sent : Metrics.counter;
  h_depth : Metrics.histogram;
  h_delivered : Metrics.counter;
  h_batch_size : Metrics.histogram option;
}

type 'm chan = {
  wire : 'm list Transport.t;
  mutable outbox : 'm list;  (* reversed *)
  src : string;
  dst : string;
  name : string;  (* "src->dst": transport label, recorder Flush channel *)
  op_id : 'm -> Op_id.t option;
  tap : tap;
  mutable handles : handles option;
}

type any = Any : 'm chan -> any

(* Everything the observability layer needs, allocated once at
   [attach_obs]: metric handles plus per-slot counter snapshots, so
   each event can report {e deltas} of the protocols' cumulative
   OT/metadata counters. *)
type obs_state = {
  obs : Obs.t;
  c_updates : Metrics.counter;
  c_reads : Metrics.counter;
  c_transforms : Metrics.counter;
  h_deliver_tr : Metrics.histogram;
  h_msg_bytes : Metrics.histogram;
  g_metadata : Metrics.gauge;
  last_ot : int array;
  last_meta : int array;
  mutable meta_total : int;
}

type t = {
  name : string;
  net : Transport.config option;
  batching : bool;
  history : bool;
      (* retain the spec-event trace; switched off for unbounded soaks,
         where it is a structure that grows with the horizon *)
  initial : Document.t;
  slots : int;
  ot : int -> int;
  meta : int -> int;
  document : int -> Document.t;
  visible : int -> Op_id.Set.t;
  mutable chans : any list;  (* registration (= tick) order *)
  mutable clock : int;  (* mirrors the per-channel virtual clocks *)
  mutable recorder : Recorder.t option;
  mutable obs : obs_state option;
  mutable events : Rlist_spec.Event.t list;  (* reversed *)
  mutable next_eid : int;
  gc : Rlist_gc.Driver.t option;
}

let create ~name ?net ~batching ?gc ~history ~initial ~slots ~ot ~meta
    ~document ~visible () =
  {
    name;
    net;
    batching;
    history;
    initial;
    slots;
    ot;
    meta;
    document;
    visible;
    chans = [];
    clock = 0;
    recorder = None;
    obs = None;
    events = [];
    next_eid = 0;
    gc = Option.map Rlist_gc.Driver.create gc;
  }

let record t d =
  match t.recorder with
  | Some r -> Recorder.record r d
  | None -> ()

(* --- channels -------------------------------------------------------- *)

let chan t ~src ~dst ~op_id tap =
  let name = src ^ "->" ^ dst in
  let wire =
    match t.net with
    | None -> Transport.perfect ()
    | Some cfg ->
      let key batch = batch_key (List.map op_id batch) in
      Transport.create ~key ~weight:List.length ~name cfg
  in
  let ch = { wire; outbox = []; src; dst; name; op_id; tap; handles = None } in
  t.chans <- t.chans @ [ Any ch ];
  ch

let pending ch = Transport.pending ch.wire + List.length ch.outbox

let deliverable ch =
  Transport.deliverable ch.wire + match ch.outbox with [] -> 0 | _ -> 1

let label ch batch = batch_key (List.map ch.op_id batch)

(* A crude but protocol-agnostic payload estimate: the heap words
   reachable from the message, in bytes.  Shared substructure is
   counted once per message, mirroring what a naive serializer would
   transmit.  Singletons are measured unwrapped. *)
let batch_bytes batch =
  let words =
    match batch with
    | [ m ] -> Obj.reachable_words (Obj.repr m)
    | _ -> Obj.reachable_words (Obj.repr batch)
  in
  words * (Sys.word_size / 8)

(* The send-side observation, run where the payload is accounted as
   entering the channel; the depth is read when it runs. *)
let observe_send t os ch batch () =
  match ch.handles with
  | None -> ()
  | Some h ->
    Metrics.incr h.h_sent;
    Option.iter
      (fun hb -> Metrics.observe hb (float_of_int (List.length batch)))
      h.h_batch_size;
    let depth = Transport.pending ch.wire in
    Metrics.observe h.h_depth (float_of_int depth);
    Metrics.observe os.h_msg_bytes (float_of_int (batch_bytes batch));
    if Obs.tracing os.obs then
      Obs.emit os.obs
        (Ev.Send
           {
             src = ch.src;
             dst = ch.dst;
             op_id = label ch batch;
             bytes = batch_bytes batch;
             queue = depth;
             tick = t.clock;
           })

(* The one path onto the wire. *)
let send t ch batch =
  Transport.send ch.wire batch;
  match t.obs with
  | None -> ignore
  | Some os -> observe_send t os ch batch

let post t ch m =
  if t.batching then begin
    ch.outbox <- m :: ch.outbox;
    ignore
  end
  else send t ch [ m ]

let flush t ch =
  match ch.outbox with
  | [] -> ()
  | rev ->
    ch.outbox <- [];
    let batch = List.rev rev in
    record t (Recorder.Flush { channel = ch.name; ops = List.length batch });
    send t ch batch ()

let note_ops t n =
  match t.gc with
  | Some d when n > 0 -> Rlist_gc.Driver.note_ops d n
  | _ -> ()

(* --- clock, recorder, history ---------------------------------------- *)

let clock t = t.clock

let tick t =
  List.iter (fun (Any ch) -> Transport.tick ch.wire) t.chans;
  t.clock <- t.clock + 1;
  record t (Recorder.Tick t.clock)

let sum_chans t f = List.fold_left (fun n c -> n + f c) 0 t.chans

let pending_messages t = sum_chans t (fun (Any ch) -> pending ch)

let dedup_keys t = sum_chans t (fun (Any ch) -> Transport.dedup_keys ch.wire)

let attach_recorder t r =
  t.recorder <- Some r;
  Option.iter (fun cfg -> Transport.set_recorder cfg (Some r)) t.net

let history t = t.history

let trace t =
  Rlist_spec.Trace.make ~initial:t.initial ~events:(List.rev t.events)

(* --- observability --------------------------------------------------- *)

let attach_obs t obs ~prefix =
  let m = obs.Obs.metrics in
  let name s = prefix ^ "." ^ s in
  let last_ot = Array.init t.slots t.ot in
  let last_meta = Array.init t.slots t.meta in
  let meta_total = Array.fold_left ( + ) 0 last_meta in
  let os =
    {
      obs;
      c_updates = Metrics.counter m (name "updates_generated");
      c_reads = Metrics.counter m (name "reads_generated");
      c_transforms = Metrics.counter m (name "transforms");
      h_deliver_tr = Metrics.histogram m (name "transforms_per_delivery");
      h_msg_bytes = Metrics.histogram m (name "msg_bytes");
      g_metadata = Metrics.gauge m (name "metadata_total");
      last_ot;
      last_meta;
      meta_total;
    }
  in
  List.iter
    (fun (Any ch) ->
      ch.handles <-
        Some
          {
            h_sent = Metrics.counter m ch.tap.sent;
            h_depth = Metrics.histogram m ch.tap.depth;
            h_delivered = Metrics.counter m ch.tap.delivered;
            h_batch_size = Option.map (Metrics.histogram m) ch.tap.batch_size;
          })
    t.chans;
  Metrics.set_gauge os.g_metadata (float_of_int meta_total);
  Option.iter (fun cfg -> Transport.set_obs cfg (Some obs)) t.net;
  t.obs <- Some os

let obs t = Option.map (fun (os : obs_state) -> os.obs) t.obs

let tracing t =
  match t.obs with
  | Some os -> Obs.tracing os.obs
  | None -> false

let emit t ev =
  match t.obs with
  | Some os -> Obs.emit os.obs ev
  | None -> ()

(* Consume the slot's OT-counter delta since the last probe. *)
let ot_delta t os slot =
  let current = t.ot slot in
  let delta = current - os.last_ot.(slot) in
  os.last_ot.(slot) <- current;
  delta

let meta_delta t os slot =
  let current = t.meta slot in
  let delta = current - os.last_meta.(slot) in
  os.last_meta.(slot) <- current;
  os.meta_total <- os.meta_total + delta;
  Metrics.set_gauge os.g_metadata (float_of_int os.meta_total)

let generate t ~client ~slot ~replica ?via intent gen =
  record t
    (Recorder.Generate
       { client; intent = Schedule_text.intent_to_string intent });
  let ((outcome : Protocol_intf.do_outcome), _) as result = gen () in
  if t.history then begin
    t.events <-
      Rlist_spec.Event.make ~eid:t.next_eid ~replica:(Replica_id.Client client)
        ~op:outcome.op ~op_id:outcome.op_id ~result:(t.document client)
        ~visible:(t.visible client)
      :: t.events;
    t.next_eid <- t.next_eid + 1
  end;
  if Option.is_some outcome.op_id then note_ops t 1;
  (match t.obs with
  | None -> ()
  | Some os ->
    let transforms = ot_delta t os slot in
    meta_delta t os slot;
    Metrics.incr
      (match outcome.op_id with Some _ -> os.c_updates | None -> os.c_reads);
    Metrics.add os.c_transforms transforms;
    if Obs.tracing os.obs then
      Obs.emit os.obs
        (Ev.Generate
           {
             replica;
             op_id = Option.map Op_id.to_string outcome.op_id;
             intent =
               (match outcome.op with
               | Rlist_spec.Event.Do_read -> "read"
               | Rlist_spec.Event.Do_ins _ -> "ins"
               | Rlist_spec.Event.Do_del _ -> "del");
             queue = (match via with Some ch -> pending ch | None -> 0);
             tick = t.clock;
           }));
  result

(* On a faulty channel the just-flushed payload may not be ready yet;
   the delivery then falls into the [None] case like any other
   consumed arrival.  The decision is recorded only for payloads that
   reach the protocol, so the decision stream is the logical
   (exactly-once) delivery schedule — replayable on perfect channels. *)
let deliver t ch ~slot decision receive =
  flush t ch;
  match Transport.deliver ch.wire with
  | None -> None
  | Some batch ->
    record t decision;
    note_ops t
      (List.fold_left
         (fun n m -> match ch.op_id m with Some _ -> n + 1 | None -> n)
         0 batch);
    let result = receive batch in
    (match t.obs with
    | None -> ()
    | Some os ->
      let transforms = ot_delta t os slot in
      meta_delta t os slot;
      Option.iter (fun h -> Metrics.incr h.h_delivered) ch.handles;
      Metrics.add os.c_transforms transforms;
      Metrics.observe os.h_deliver_tr (float_of_int transforms);
      if Obs.tracing os.obs then
        Obs.emit os.obs
          (Ev.Deliver
             {
               replica = ch.dst;
               src = ch.src;
               op_id = label ch batch;
               transforms;
               queue = pending ch;
               tick = t.clock;
             }));
    Some (batch, result)

(* --- continuous GC --------------------------------------------------- *)

let gc_stats t = Option.map Rlist_gc.Driver.stats t.gc

let sum_slots t f =
  let sum = ref 0 in
  for slot = 0 to t.slots - 1 do
    sum := !sum + f slot
  done;
  !sum

let total_ot t = sum_slots t t.ot

let total_meta t = sum_slots t t.meta

let emit_traced t ev = if tracing t then emit t ev

(* One compaction cycle, out of band: the protocol's own compaction
   (the engine's [compact]) runs on empty channels only, and nothing
   here consumes a transport send, a sequence number, an RNG draw or a
   behaviour entry — which keeps a GC-on run's schedule, behaviour and
   final documents bit-identical to the same seed with GC off
   (DESIGN.md section 14).  Acked retransmission entries are already
   dropped by [Transport.tick]; what the shim-pruning step bounds is
   the receiver-side dedup tables. *)
let run_gc_cycle t d trigger ~meta_before ~compact x =
  let (before : Rlist_gc.stats) = Rlist_gc.Driver.stats d in
  let cycle = Rlist_gc.Driver.begin_cycle d trigger in
  let trigger_s = Rlist_gc.trigger_name trigger in
  record t (Recorder.Gc { cycle; trigger = trigger_s });
  emit_traced t
    (Ev.Gc_begin
       { cycle; trigger = trigger_s; meta = meta_before; tick = t.clock });
  let reclaimed_log, snapshot_bytes = compact x d in
  let retain = (Rlist_gc.Driver.policy d).Rlist_gc.retain_keys in
  let reclaimed_keys =
    sum_chans t (fun (Any ch) -> Transport.prune_delivered ch.wire ~retain)
  in
  let meta_after = total_meta t in
  let reclaimed_states = max 0 (meta_before - meta_after) in
  Rlist_gc.Driver.end_cycle d ~reclaimed_states ~reclaimed_log ~reclaimed_keys
    ~snapshot_bytes ~meta:meta_after;
  let (after : Rlist_gc.stats) = Rlist_gc.Driver.stats d in
  (* Re-baseline the metadata snapshots so the next event's delta is
     not charged with the compaction. *)
  Option.iter
    (fun os ->
      for slot = 0 to t.slots - 1 do
        meta_delta t os slot
      done)
    t.obs;
  emit_traced t
    (Ev.Gc_end
       {
         cycle;
         reclaimed_states;
         reclaimed_log;
         reclaimed_keys;
         meta = meta_after;
         snapshot_bytes = Option.value snapshot_bytes ~default:0;
         skipped =
           after.skipped_heartbeats - before.skipped_heartbeats
           + after.skipped_stables - before.skipped_stables;
         tick = t.clock;
       })

let maybe_gc t ~lag ~compact x =
  match t.gc with
  | None -> ()
  | Some d -> (
    let meta = total_meta t in
    match Rlist_gc.Driver.due d ~meta ~lag:(lag x) with
    | None -> ()
    | Some trigger -> run_gc_cycle t d trigger ~meta_before:meta ~compact x)

(* --- drivers --------------------------------------------------------- *)

type 'e lane = any * 'e

let lane ch ev = Any ch, ev

let cannot_quiesce t driver =
  invalid_arg
    (Printf.sprintf
       "%s.%s: channels cannot quiesce (total loss, or shim disabled)" t.name
       driver)

let performing apply =
  let performed = ref [] in
  let step ev =
    apply ev;
    performed := ev :: !performed
  in
  step, fun () -> List.rev !performed

(* Deliver everything recoverable, ticking the virtual clock whenever
   the channels are stalled (payloads in flight or awaiting
   retransmission, nothing ready yet).  With the shim and a fault model
   that lets messages through eventually, this terminates with
   probability 1; [quiesce_fuel] bounds the pathological cases. *)
let quiesce t lanes apply =
  let step, performed = performing apply in
  let stalled = ref 0 in
  while pending_messages t > 0 do
    let any = ref false in
    List.iter
      (fun (Any ch, ev) ->
        while deliverable ch > 0 do
          any := true;
          step ev
        done)
      lanes;
    if !any then stalled := 0
    else begin
      incr stalled;
      if !stalled > quiesce_fuel then cannot_quiesce t "quiesce"
    end;
    if pending_messages t > 0 then tick t
  done;
  performed ()

let random_intent rng ~(params : Schedule.random_params) ~doc_length =
  if Random.State.float rng 1.0 < params.read_fraction then Intent.Read
  else if doc_length > 0 && Random.State.float rng 1.0 < params.delete_fraction
  then Intent.Delete (Random.State.int rng doc_length)
  else
    let value = Char.chr (Char.code 'a' + Random.State.int rng 26) in
    Intent.Insert (value, Random.State.int rng (doc_length + 1))

let run_random t lanes ~apply ~generate ~writers ~doc_length ?intent ~rng
    (params : Schedule.random_params) =
  let step, performed = performing apply in
  let remaining = ref params.updates in
  let stalled = ref 0 in
  while !remaining > 0 || pending_messages t > 0 do
    let deliveries =
      List.filter_map
        (fun (Any ch, ev) -> if deliverable ch > 0 then Some ev else None)
        lanes
    in
    let deliver () =
      stalled := 0;
      step (List.nth deliveries (Random.State.int rng (List.length deliveries)))
    in
    let gen () =
      let i = 1 + Random.State.int rng writers in
      let doc_length = doc_length i in
      let chosen =
        match intent with
        | None -> random_intent rng ~params ~doc_length
        | Some choose -> choose ~client:i ~doc_length
      in
      (match chosen with
      | Intent.Read -> ()
      | Intent.Insert _ | Intent.Delete _ -> decr remaining);
      step (generate i chosen)
    in
    (match deliveries, !remaining with
    | [], n when n > 0 -> gen ()
    | [], _ ->
      (* payloads in flight but none ready: let the clock advance
         (below) until a delay expires or a retransmission fires *)
      incr stalled;
      if !stalled > quiesce_fuel then cannot_quiesce t "run_random"
    | _ :: _, 0 -> deliver ()
    | _ :: _, _ ->
      if Random.State.float rng 1.0 < params.deliver_bias then deliver ()
      else gen ());
    tick t
  done;
  for i = 1 to writers do
    step (generate i Intent.Read)
  done;
  performed ()
