(* What the benchmark sees of a run, observed from outside the engine.

   [Traced (P)] wraps a protocol's handlers; the engine is instantiated
   over the wrapped protocol, so nothing under lib/ changes.  Every
   handler call reports into the one process-wide [st] record: which
   replica integrated which operation and when (on the engine's virtual
   clock), how long each receive call took, and — only while [tracing]
   is set — one span per call.  The benchmark adds the parent
   spans around each engine call it makes ({!call}).

   The benchmark runs on one thread and drives one engine at a time, so
   a single global record is enough. *)

open Rlist_model
module Schedule = Rlist_sim.Schedule

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* A growable array; [dummy] fills unused slots. *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

  let create dummy = { data = Array.make 1024 dummy; len = 0; dummy }

  let push v x =
    if v.len = Array.length v.data then begin
      let data = Array.make (2 * v.len) v.dummy in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let length v = v.len
  let set v i x = v.data.(i) <- x
  let clear v = v.len <- 0
  let truncate v n = v.len <- min n v.len
  let to_array v = Array.sub v.data 0 v.len
end

(* --- spans --------------------------------------------------------------- *)

(* Engine calls the benchmark makes (layer [sim]) and the protocol handlers
   [Traced] wraps (layer [core]). *)
type kind =
  | Create
  | Apply_event
  | Quiesce
  | Run_random
  | Run_timed
  | Generate
  | Server_receive
  | Server_receive_batch
  | Client_receive
  | Client_receive_batch

let kind_name = function
  | Create -> "create"
  | Apply_event -> "apply_event"
  | Quiesce -> "quiesce"
  | Run_random -> "run_random"
  | Run_timed -> "run_timed"
  | Generate -> "client_generate"
  | Server_receive -> "server_receive"
  | Server_receive_batch -> "server_receive_batch"
  | Client_receive -> "client_receive"
  | Client_receive_batch -> "client_receive_batch"

let layer = function
  | Create | Apply_event | Quiesce | Run_random | Run_timed -> "sim"
  | Generate | Server_receive | Server_receive_batch | Client_receive
  | Client_receive_batch ->
    "core"

type span = {
  kind : kind;
  start : int;  (** ns, monotonic *)
  stop : int;
  parent : int;  (** index of the enclosing span, or [-1] *)
  ops : Op_id.t list;  (** the operations the call carried *)
}

let no_span = { kind = Create; start = 0; stop = 0; parent = -1; ops = [] }

(* Self time of every span: its duration minus the part of its interval
   covered by its children (the union of the child intervals, clipped
   to the parent).  Children must follow their parent in the array, as
   they do when spans are pushed at call entry. *)
let self_times (spans : span array) =
  let n = Array.length spans in
  let children = Array.make n [] in
  for i = n - 1 downto 0 do
    let p = spans.(i).parent in
    if p >= 0 then children.(p) <- i :: children.(p)
  done;
  Array.mapi
    (fun i s ->
      let clipped =
        List.map
          (fun c ->
            (max s.start spans.(c).start, min s.stop spans.(c).stop))
          children.(i)
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      (* union length of the sorted intervals *)
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, min_int) clipped
      in
      s.stop - s.start - covered)
    spans

(* Nearest-rank percentile of an ascending array: the smallest value
   with at least [q] of the samples at or below it. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "percentile: no samples";
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  sorted.(min (n - 1) (max 0 (rank - 1)))

(* --- the process-wide probe state ---------------------------------------- *)

type entry = {
  born : int;  (** engine clock at generation *)
  mutable mask : int;  (** bit [r] set once replica [r] integrated *)
}

type state = {
  mutable tracing : bool;  (** record spans *)
  mutable log_schedule : bool;  (** record the logical schedule *)
  mutable clock : unit -> int;
  mutable full_mask : int;
  table : entry Op_id.Table.t;  (** updates not yet integrated everywhere *)
  mutable generated : int;
  mutable integrated : int;  (** updates integrated at every replica *)
  mutable receive_calls : int;
  mutable receive_msgs : int;
  apply_ns : int Vec.t;
      (** one sample per (update, receiving replica): the duration of
          the receive call that carried it *)
  lags : int Vec.t;  (** virtual-clock lag of each fully integrated update *)
  mutable schedule : Schedule.event list;  (** reversed *)
  spans : span Vec.t;
  mutable parent : int;
}

let st =
  {
    tracing = false;
    log_schedule = false;
    clock = (fun () -> 0);
    full_mask = 0;
    table = Op_id.Table.create 4096;
    generated = 0;
    integrated = 0;
    receive_calls = 0;
    receive_msgs = 0;
    apply_ns = Vec.create 0;
    lags = Vec.create 0;
    schedule = [];
    spans = Vec.create no_span;
    parent = -1;
  }

(* Bind the probe to a freshly created engine: replica 0 is the server,
   replicas [1..nclients] the clients. *)
let begin_engine ~nclients ~server_is_replica ~clock =
  Op_id.Table.reset st.table;
  let all = (1 lsl (nclients + 1)) - 1 in
  st.full_mask <- (if server_is_replica then all else all land lnot 1);
  st.clock <- clock

(* Updates generated since {!begin_engine} that some replica has not
   integrated yet. *)
let outstanding () = Op_id.Table.length st.table

let push_span kind ~start ~stop ops =
  Vec.push st.spans { kind; start; stop; parent = st.parent; ops }

(* Run one engine call; while tracing, as a span enclosing the handler
   spans it causes. *)
let call kind f =
  if not st.tracing then f ()
  else begin
    let idx = Vec.length st.spans in
    let start = now_ns () in
    push_span kind ~start ~stop:start [];
    let outer = st.parent in
    st.parent <- idx;
    let finish () =
      st.parent <- outer;
      Vec.set st.spans idx
        { kind; start; stop = now_ns (); parent = outer; ops = [] }
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let log_event ev = if st.log_schedule then st.schedule <- ev :: st.schedule

let generated ~replica intent op_id ~start ~stop =
  log_event (Schedule.Generate (replica, intent));
  (match op_id with
  | None -> ()
  | Some id ->
    st.generated <- st.generated + 1;
    Op_id.Table.replace st.table id
      { born = st.clock (); mask = 1 lsl replica });
  if st.tracing then
    push_span Generate ~start ~stop (Option.to_list op_id)

let integrate ~bit ~dt id =
  match Op_id.Table.find_opt st.table id with
  | None -> ()
  | Some e ->
    if e.mask land bit = 0 then begin
      e.mask <- e.mask lor bit;
      Vec.push st.apply_ns dt;
      if e.mask = st.full_mask then begin
        (* Counted inclusively — an update integrated everywhere within
           the tick it was generated in has lag 1 — so the lag of a
           wire that never waits reads 1, not 0. *)
        Vec.push st.lags (st.clock () - e.born + 1);
        st.integrated <- st.integrated + 1;
        Op_id.Table.remove st.table id
      end
    end

(* A receive call at [replica] (0 = server) carrying [ids]; pure
   acknowledgements and control messages carry [None].  An own
   operation echoed back as an acknowledgement is not an integration:
   its bit is already set. *)
let received kind ~replica ~event ids ~start ~stop =
  log_event event;
  st.receive_calls <- st.receive_calls + 1;
  st.receive_msgs <- st.receive_msgs + List.length ids;
  let bit = 1 lsl replica and dt = stop - start in
  List.iter (function Some id -> integrate ~bit ~dt id | None -> ()) ids;
  if st.tracing then push_span kind ~start ~stop (List.filter_map Fun.id ids)

(* --- the protocol wrapper ------------------------------------------------ *)

module Traced (P : Rlist_sim.Protocol_intf.PROTOCOL) :
  Rlist_sim.Protocol_intf.PROTOCOL
    with type server = P.server
     and type c2s = P.c2s
     and type s2c = P.s2c = struct
  include (
    P :
      Rlist_sim.Protocol_intf.PROTOCOL
        with type client := P.client
         and type server = P.server
         and type c2s = P.c2s
         and type s2c = P.s2c)

  (* The wrapped client knows its replica number, so a receive call can
     be attributed to it. *)
  type client = { inner : P.client; id : int }

  let create_client ~fastpath ~nclients ~id ~initial =
    { inner = P.create_client ~fastpath ~nclients ~id ~initial; id }

  let client_generate c intent =
    let start = now_ns () in
    let ((outcome : Rlist_sim.Protocol_intf.do_outcome), _) as result =
      P.client_generate c.inner intent
    in
    let stop = now_ns () in
    generated ~replica:c.id intent outcome.op_id ~start ~stop;
    result

  let server_receive s ~from m =
    let start = now_ns () in
    let out = P.server_receive s ~from m in
    let stop = now_ns () in
    received Server_receive ~replica:0 ~event:(Schedule.Deliver_to_server from)
      [ P.c2s_op_id m ] ~start ~stop;
    out

  let server_receive_batch s ~from batch =
    let start = now_ns () in
    let out = P.server_receive_batch s ~from batch in
    let stop = now_ns () in
    received Server_receive_batch ~replica:0
      ~event:(Schedule.Deliver_to_server from)
      (List.map P.c2s_op_id batch) ~start ~stop;
    out

  let client_receive c m =
    let start = now_ns () in
    P.client_receive c.inner m;
    let stop = now_ns () in
    received Client_receive ~replica:c.id
      ~event:(Schedule.Deliver_to_client c.id) [ P.s2c_op_id m ] ~start ~stop

  let client_receive_batch c batch =
    let start = now_ns () in
    P.client_receive_batch c.inner batch;
    let stop = now_ns () in
    received Client_receive_batch ~replica:c.id
      ~event:(Schedule.Deliver_to_client c.id)
      (List.map P.s2c_op_id batch) ~start ~stop

  let client_document c = P.client_document c.inner
  let client_visible c = P.client_visible c.inner
  let client_ot_count c = P.client_ot_count c.inner
  let client_metadata_size c = P.client_metadata_size c.inner

  let gc_support =
    Option.map
      (fun (g : (P.client, server, c2s) Rlist_sim.Protocol_intf.gc_support) ->
        {
          g with
          Rlist_sim.Protocol_intf.gc_heartbeat =
            (fun c -> g.Rlist_sim.Protocol_intf.gc_heartbeat c.inner);
          gc_client_frontier =
            (fun c -> g.Rlist_sim.Protocol_intf.gc_client_frontier c.inner);
        })
      P.gc_support
end
