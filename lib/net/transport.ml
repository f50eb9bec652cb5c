(* One directed channel.  [Perfect] is the seed repository's FIFO
   queue, bit-for-bit.  [Lossy] stamps every payload with a per-channel
   sequence number, pushes it through the fault model onto a virtual
   wire (a FIFO of ready copies plus a list of jittered ones sorted by
   arrival time), and — when the shim is on — runs a
   retransmission/resequencing protocol that restores the
   FIFO-exactly-once contract the Jupiter protocols assume
   (Section 4.4 of the paper; DESIGN.md section 9 has the argument and
   the wire's layout). *)

type config = {
  faults : Faults.spec;
  shim : bool;
  rto : int;
  rng : Random.State.t;
  stats : Stats.t;
  mutable obs : Rlist_obs.Obs.t option;
  mutable recorder : Rlist_obs.Recorder.t option;
}

let config ?(shim = true) ?(rto = 12) ~faults ~seed () =
  if rto < 1 then invalid_arg "Transport.config: rto must be >= 1";
  (match Faults.validate faults with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Transport.config: " ^ msg));
  {
    faults;
    shim;
    rto;
    rng = Random.State.make [| seed; 0x4E37 |];
    stats = Stats.create ();
    obs = None;
    recorder = None;
  }

let stats cfg = cfg.stats

let set_obs cfg obs = cfg.obs <- obs

let set_recorder cfg recorder = cfg.recorder <- recorder

(* A payload the sender has stamped.  [i_copies] counts its copies on
   the wire — queued or jittered, not yet delivered or lost — so "is
   it still in flight?" is a field read.  [i_held] says the last ack
   consumed listed it as buffered at the receiver. *)
type 'a inflight = {
  i_seq : int;
  i_payload : 'a;
  mutable i_last_sent : int;
  mutable i_attempts : int;
  mutable i_copies : int;
  mutable i_held : bool;
}

(* One copy on the wire.  It keeps its own seq and payload (after a
   sender rollback a seq can be reused for another payload) and points
   at the record whose [i_copies] it is counted in. *)
type 'a wire_item = {
  w_seq : int;
  w_payload : 'a;
  w_ready : int;  (* earliest tick the copy can be delivered *)
  mutable w_rec : 'a inflight;
}

type 'a lossy = {
  cfg : config;
  name : string;  (* channel label for wire trace events *)
  key : 'a -> string option;
  weight : 'a -> int;  (* operations carried by a payload *)
  mutable now : int;
  ready : 'a wire_item Queue.t;
      (* copies deliverable now, in (ready tick, insertion) order *)
  mutable delayed : 'a wire_item list;
      (* jittered copies not yet ready, sorted by (ready tick, insertion) *)
  mutable ack_wire : int;
      (* the one ack in flight (cumulative seq), or -1: an ack leaves on
         a tick and arrives on the next, so there is never a second *)
  mutable ack_sack : (int * 'a) list;
      (* its selective part: the receiver's resequencer as the ack left
         (shared, not copied — the list is immutable) *)
  mutable next_seq : int;  (* sender: next sequence number to assign *)
  mutable max_sent : int;  (* sender: highest seq ever sent *)
  unacked : 'a inflight Queue.t;  (* sender retransmit buffer, by seq *)
  mutable held : int;  (* sender: records in [unacked] marked [i_held] *)
  mutable cursor : (int * 'a) list;
      (* a walk's position in a selective ack, kept here so the walk's
         step function closes over nothing and allocates nothing *)
  mutable next_due : int;
      (* no retransmission is due before this tick: a lower bound on the
         deadlines of idle unacked payloads (see [idle]) *)
  mutable expected : int;  (* receiver: next seq to hand to the app *)
  mutable resequencer : (int * 'a) list;  (* receiver buffer, by seq *)
  mutable ack_pending : bool;
  seen_keys : (string, unit) Hashtbl.t;
  seen_order : (int * string) Queue.t;
      (* the same keys in delivery (seq) order, so the GC driver can
         prune the oldest without iterating the hash table *)
  mutable was_down : bool;
}

type 'a t = Perfect of 'a Queue.t | Lossy of 'a lossy

let perfect () = Perfect (Queue.create ())

let no_key _ = None

let create ?(key = no_key) ?(weight = fun _ -> 1) ?(name = "wire") cfg =
  Lossy
    {
      cfg;
      name;
      key;
      weight;
      now = 0;
      ready = Queue.create ();
      delayed = [];
      ack_wire = -1;
      ack_sack = [];
      next_seq = 1;
      max_sent = 0;
      unacked = Queue.create ();
      held = 0;
      cursor = [];
      next_due = max_int;
      expected = 1;
      resequencer = [];
      ack_pending = false;
      seen_keys = Hashtbl.create 64;
      seen_order = Queue.create ();
      was_down = false;
    }

let is_lossy = function Perfect _ -> false | Lossy _ -> true

let down l = Faults.down_at l.cfg.faults ~tick:l.now

let roll l p = p > 0.0 && Random.State.float l.cfg.rng 1.0 < p

(* Wire-level observability: trace anomalies the fault model or the
   shim produces (drops, duplicates, jitter, retransmissions, acks) so
   a span analyzer can reconstruct an op's transit, and record the
   corresponding decision in the flight recorder.  Both are single
   [None]-branch no-ops when detached. *)
let emit_wire l ~action ~wseq ~info =
  match l.cfg.obs with
  | Some obs when Rlist_obs.Obs.tracing obs ->
    Rlist_obs.Obs.emit obs
      (Rlist_obs.Event.Wire { channel = l.name; action; wseq; info; tick = l.now })
  | _ -> ()

let record_decision l d =
  match l.cfg.recorder with
  | Some r -> Rlist_obs.Recorder.record r d
  | None -> ()

(* Retransmission backs off exponentially (capped) so a long partition
   does not flood the wire the moment it heals. *)
let timeout cfg attempts =
  cfg.rto * (1 lsl min (attempts - 1) 4)

let deadline l i = i.i_last_sent + timeout l.cfg i.i_attempts

(* An unacked payload is idle when no copy of it is on the wire and
   the receiver is not known to hold it: only an idle payload can time
   out. *)
let idle i = i.i_copies = 0 && not i.i_held

(* Fold steps over [unacked] take the channel as their accumulator, so
   they close over nothing and a walk allocates nothing. *)
let lower_due l i =
  if idle i then l.next_due <- Int.min l.next_due (deadline l i);
  l

(* Recompute [next_due] exactly: the earliest deadline of an idle
   payload. *)
let reset_due l =
  l.next_due <- max_int;
  ignore (Queue.fold lower_due l l.unacked)

let iter_wire f l =
  Queue.iter f l.ready;
  List.iter f l.delayed

(* Count the wire copies stamped [i.i_seq] against [i]: a sender that
   rolled back to a checkpoint re-creates records whose copies may
   still be in flight. *)
let adopt_copies l i =
  iter_wire
    (fun w ->
      if w.w_seq = i.i_seq then begin
        w.w_rec <- i;
        i.i_copies <- i.i_copies + 1
      end)
    l

(* Once [i] is idle, its deadline bounds [next_due]. *)
let note_idle l i = ignore (lower_due l i)

(* A copy left the wire (delivered or lost). *)
let release_copy l w =
  let i = w.w_rec in
  i.i_copies <- i.i_copies - 1;
  note_idle l i

(* Insert a jittered copy after every copy ready no later than it,
   which keeps insertion order among equal ready ticks. *)
let delay_insert l item =
  let rec go = function
    | x :: rest when x.w_ready <= item.w_ready -> x :: go rest
    | rest -> item :: rest
  in
  l.delayed <- go l.delayed

(* Push one copy of [i] through the fault model.  May drop it, jitter
   its arrival time, or enqueue an extra copy. *)
let transmit l i =
  let s = l.cfg.stats in
  let seq = i.i_seq in
  s.Stats.transmissions <- s.Stats.transmissions + 1;
  s.Stats.op_transmissions <- s.Stats.op_transmissions + l.weight i.i_payload;
  if down l then begin
    s.Stats.partition_drops <- s.Stats.partition_drops + 1;
    emit_wire l ~action:"partition_drop" ~wseq:seq ~info:0;
    record_decision l
      (Rlist_obs.Recorder.Transmit
         { channel = l.name; seq; outcome = Rlist_obs.Recorder.Partition_dropped })
  end
  else if roll l l.cfg.faults.Faults.drop then begin
    s.Stats.dropped <- s.Stats.dropped + 1;
    emit_wire l ~action:"drop" ~wseq:seq ~info:0;
    record_decision l
      (Rlist_obs.Recorder.Transmit
         { channel = l.name; seq; outcome = Rlist_obs.Recorder.Dropped })
  end
  else begin
    let enqueue () =
      let jitter =
        if roll l l.cfg.faults.Faults.reorder then begin
          s.Stats.reordered <- s.Stats.reordered + 1;
          1 + Random.State.int l.cfg.rng l.cfg.faults.Faults.delay
        end
        else 0
      in
      let item =
        { w_seq = seq; w_payload = i.i_payload; w_ready = l.now + jitter;
          w_rec = i }
      in
      i.i_copies <- i.i_copies + 1;
      if jitter = 0 then Queue.push item l.ready else delay_insert l item;
      jitter
    in
    let jitter = enqueue () in
    if jitter > 0 then emit_wire l ~action:"delay" ~wseq:seq ~info:jitter;
    record_decision l
      (Rlist_obs.Recorder.Transmit
         {
           channel = l.name;
           seq;
           outcome =
             (if jitter > 0 then Rlist_obs.Recorder.Delayed jitter
              else Rlist_obs.Recorder.Sent);
         });
    if roll l l.cfg.faults.Faults.duplicate then begin
      s.Stats.duplicated <- s.Stats.duplicated + 1;
      let jitter = enqueue () in
      emit_wire l ~action:"dup" ~wseq:seq ~info:jitter;
      record_decision l
        (Rlist_obs.Recorder.Transmit
           { channel = l.name; seq; outcome = Rlist_obs.Recorder.Duplicated })
    end
  end

let inflight l seq payload =
  { i_seq = seq; i_payload = payload; i_last_sent = l.now; i_attempts = 1;
    i_copies = 0; i_held = false }

let send t payload =
  match t with
  | Perfect q -> Queue.push payload q
  | Lossy l ->
    let s = l.cfg.stats in
    s.Stats.payloads <- s.Stats.payloads + 1;
    s.Stats.op_payloads <- s.Stats.op_payloads + l.weight payload;
    let seq = l.next_seq in
    l.next_seq <- seq + 1;
    let i = inflight l seq payload in
    if l.cfg.shim then begin
      if seq <= l.max_sent then adopt_copies l i else l.max_sent <- seq;
      Queue.push i l.unacked
    end;
    transmit l i;
    note_idle l i

(* Length of the contiguous run of buffered sequence numbers starting
   at [expected] — deliverable without any wire arrival. *)
let resequencer_run l =
  let rec go n expected = function
    | (seq, _) :: rest when seq = expected -> go (n + 1) (expected + 1) rest
    | _ -> n
  in
  go 0 l.expected l.resequencer

let deliverable = function
  | Perfect q -> Queue.length q
  | Lossy l -> Queue.length l.ready + resequencer_run l

(* Application payloads sent but not yet delivered.  With the shim
   every one of them is still recoverable (retransmission), so this is
   exactly [next_seq - expected]; without the shim only what is
   physically on the wire can still arrive. *)
let pending = function
  | Perfect q -> Queue.length q
  | Lossy l ->
    if l.cfg.shim then l.next_seq - l.expected
    else Queue.length l.ready + List.length l.delayed

(* Pop the oldest copy that is ready at the current tick. *)
let pop_ready l =
  if Queue.is_empty l.ready then None
  else begin
    let item = Queue.pop l.ready in
    release_copy l item;
    Some item
  end

let accept_app l ~seq payload =
  let s = l.cfg.stats in
  match l.key payload with
  | Some k when Hashtbl.mem l.seen_keys k ->
    (* Belt-and-braces guard: the payload's operation identifier was
       already delivered on this channel (possible after a reconnect
       with rolled-back sequence numbers). *)
    s.Stats.opid_dup_dropped <- s.Stats.opid_dup_dropped + 1;
    None
  | key ->
    (match key with
    | Some k ->
      Hashtbl.replace l.seen_keys k ();
      Queue.push (seq, k) l.seen_order
    | None -> ());
    s.Stats.delivered <- s.Stats.delivered + 1;
    Some payload

let deliver t =
  match t with
  | Perfect q -> Queue.take_opt q
  | Lossy l ->
    let s = l.cfg.stats in
    if l.cfg.shim then begin
      match l.resequencer with
      | (seq, payload) :: rest when seq = l.expected ->
        l.resequencer <- rest;
        l.expected <- l.expected + 1;
        l.ack_pending <- true;
        accept_app l ~seq payload
      | _ -> (
        match pop_ready l with
        | None -> None
        | Some item ->
          if item.w_seq < l.expected then begin
            (* Already delivered: suppress, but re-acknowledge so a
               lost ack cannot retransmit forever. *)
            s.Stats.dup_dropped <- s.Stats.dup_dropped + 1;
            emit_wire l ~action:"dup_drop" ~wseq:item.w_seq ~info:0;
            l.ack_pending <- true;
            None
          end
          else if item.w_seq > l.expected then begin
            if List.mem_assoc item.w_seq l.resequencer then begin
              s.Stats.dup_dropped <- s.Stats.dup_dropped + 1;
              emit_wire l ~action:"dup_drop" ~wseq:item.w_seq ~info:0
            end
            else begin
              (* The sender learns of it from the next ack's selective
                 part, so an out-of-order arrival is acknowledged too. *)
              s.Stats.out_of_order <- s.Stats.out_of_order + 1;
              l.ack_pending <- true;
              emit_wire l ~action:"ooo" ~wseq:item.w_seq ~info:0;
              let rec insert = function
                | [] -> [ item.w_seq, item.w_payload ]
                | (seq, _) :: _ as all when item.w_seq < seq ->
                  (item.w_seq, item.w_payload) :: all
                | x :: rest -> x :: insert rest
              in
              l.resequencer <- insert l.resequencer
            end;
            None
          end
          else begin
            l.expected <- l.expected + 1;
            l.ack_pending <- true;
            accept_app l ~seq:item.w_seq item.w_payload
          end)
    end
    else begin
      (* Raw unreliable channel: hand over whatever arrives, but keep
         score of how far it strays from FIFO-exactly-once. *)
      match pop_ready l with
      | None -> None
      | Some item ->
        if item.w_seq <> l.expected then
          s.Stats.contract_violations <- s.Stats.contract_violations + 1;
        l.expected <- max l.expected (item.w_seq + 1);
        s.Stats.delivered <- s.Stats.delivered + 1;
        Some item.w_payload
    end

(* Jittered copies whose ready tick has come join the ready FIFO. *)
let rec release_delayed l =
  match l.delayed with
  | item :: rest when item.w_ready <= l.now ->
    Queue.push item l.ready;
    l.delayed <- rest;
    release_delayed l
  | _ -> ()

let retransmit l i =
  let s = l.cfg.stats in
  i.i_last_sent <- l.now;
  i.i_attempts <- i.i_attempts + 1;
  s.Stats.retransmits <- s.Stats.retransmits + 1;
  emit_wire l ~action:"retransmit" ~wseq:i.i_seq ~info:i.i_attempts;
  record_decision l
    (Rlist_obs.Recorder.Retransmit
       { channel = l.name; seq = i.i_seq; attempts = i.i_attempts });
  transmit l i

(* Advance a walk's cursor in a selective ack past [seq], and say
   whether the ack lists [seq]. *)
let rec listed l seq = function
  | (s, _) :: rest when s < seq -> listed l seq rest
  | (s, _) :: rest when s = seq ->
    l.cursor <- rest;
    true
  | sack ->
    l.cursor <- sack;
    false

(* One step of the merge walk that applies a consumed ack's selective
   part ([l.cursor]) to [i]: the ack's list replaces [i]'s mark.  The
   head of [unacked] is never marked, so whatever a reneging receiver
   forgot, the payload it waits for next still times out; a listed
   head restarts its timer instead.  A hole — a payload the ack does
   not list, below one it does, with no copy left on the wire — is
   retransmitted now rather than at its deadline. *)
let mark_step l i =
  let listed = listed l i.i_seq l.cursor in
  let head = i == Queue.peek l.unacked in
  if listed && head then i.i_last_sent <- l.now;
  let held = listed && not head in
  if held <> i.i_held then begin
    i.i_held <- held;
    l.held <- (if held then l.held + 1 else l.held - 1)
  end;
  if (not listed) && l.cursor <> [] && i.i_copies = 0 then retransmit l i;
  note_idle l i;
  l

(* One step of the timeout scan, walking the selective part of the
   ack now on the wire ([l.cursor]) alongside. *)
let due_step l i =
  let listed = listed l i.i_seq l.cursor in
  if idle i && i.i_seq > l.ack_wire && (not listed) && l.now >= deadline l i
  then retransmit l i;
  lower_due l i

let tick t =
  match t with
  | Perfect _ -> ()
  | Lossy l ->
    let s = l.cfg.stats in
    l.now <- l.now + 1;
    s.Stats.ticks <- s.Stats.ticks + 1;
    let d = down l in
    if l.was_down && not d then
      s.Stats.partitions_healed <- s.Stats.partitions_healed + 1;
    l.was_down <- d;
    release_delayed l;
    (* 1. Consume the acknowledgement sent last tick.  Its cumulative
       part retires the unacked prefix up to its seq; its selective
       part replaces the marks on the rest.  A channel with nothing
       buffered and nothing marked skips the walk. *)
    if l.ack_wire >= 0 then begin
      let acked = l.ack_wire in
      l.ack_wire <- -1;
      while
        (not (Queue.is_empty l.unacked)) && (Queue.peek l.unacked).i_seq <= acked
      do
        if (Queue.pop l.unacked).i_held then l.held <- l.held - 1
      done;
      if l.ack_sack <> [] || l.held > 0 then begin
        l.cursor <- l.ack_sack;
        ignore (Queue.fold mark_step l l.unacked);
        l.cursor <- []
      end;
      l.ack_sack <- []
    end;
    (* 2. Flush the receiver's pending ack through the same fault model
       (acks travel the reverse link): the cumulative seq plus the
       seqs the resequencer holds. *)
    if l.ack_pending then begin
      l.ack_pending <- false;
      let cum = l.expected - 1 in
      if d || roll l l.cfg.faults.Faults.drop then begin
        s.Stats.acks_dropped <- s.Stats.acks_dropped + 1;
        emit_wire l ~action:"ack_drop" ~wseq:cum ~info:0;
        record_decision l
          (Rlist_obs.Recorder.Ack { channel = l.name; seq = cum; dropped = true })
      end
      else begin
        s.Stats.acks_sent <- s.Stats.acks_sent + 1;
        emit_wire l ~action:"ack" ~wseq:cum ~info:0;
        record_decision l
          (Rlist_obs.Recorder.Ack { channel = l.name; seq = cum; dropped = false });
        l.ack_wire <- cum;
        l.ack_sack <- l.resequencer
      end
    end;
    (* 3. Retransmit whatever timed out.  The timer is a fixed timeout
       with capped backoff, not an RTT estimator; what keeps it from
       firing on a copy that is merely slow is an oracle no real sender
       has: a payload still physically in flight (neither dropped nor
       delivered) is never retransmitted, because the virtual wire also
       absorbs the engine scheduler's choice latency, which the fixed
       timeout would misread as loss.  A marked payload waits for an
       ack that stops listing it, and one the ack now on the wire
       covers waits a tick for that ack.  Before [next_due] nothing can
       be due. *)
    if l.now >= l.next_due then begin
      l.next_due <- max_int;
      l.cursor <- l.ack_sack;
      ignore (Queue.fold due_step l l.unacked);
      l.cursor <- []
    end

let now = function Perfect _ -> 0 | Lossy l -> l.now

(* Drop dedup keys for payloads delivered more than [retain] sequence
   numbers ago.  In an uninterrupted session the sequence check alone
   suppresses duplicates (a key is only ever sent under one seqno, and
   retransmits reuse it), so the keys exist for the reconnect path: a
   restored receiver replays the keys from its last checkpoint to
   catch rolled-back seqno reuse.  [retain] therefore only needs to
   cover the checkpoint lag; the GC policy's [retain_keys] documents
   that contract. *)
let prune_delivered t ~retain =
  match t with
  | Perfect _ -> 0
  | Lossy l ->
    let cutoff = l.expected - 1 - retain in
    let removed = ref 0 in
    let continue = ref true in
    while !continue do
      match Queue.peek_opt l.seen_order with
      | Some (seq, key) when seq <= cutoff ->
        ignore (Queue.pop l.seen_order);
        Hashtbl.remove l.seen_keys key;
        incr removed
      | _ -> continue := false
    done;
    !removed

let dedup_keys = function
  | Perfect _ -> 0
  | Lossy l -> Hashtbl.length l.seen_keys

(* --- crash / reconnect ------------------------------------------------- *)

type 'a sender_state = { ck_next_seq : int; ck_unacked : (int * 'a) list }

type 'a receiver_state = {
  ck_expected : int;
  ck_resequencer : (int * 'a) list;
  ck_keys : (int * string) list;  (* (delivery seq, key), seq-sorted *)
}

let lossy_of name = function
  | Perfect _ -> invalid_arg ("Transport." ^ name ^ ": perfect channel")
  | Lossy l -> l

let sender_checkpoint t =
  let l = lossy_of "sender_checkpoint" t in
  {
    ck_next_seq = l.next_seq;
    ck_unacked =
      List.of_seq
        (Seq.map (fun i -> i.i_seq, i.i_payload) (Queue.to_seq l.unacked));
  }

let restore_sender t ck =
  let l = lossy_of "restore_sender" t in
  l.next_seq <- ck.ck_next_seq;
  Queue.clear l.unacked;
  l.held <- 0;
  List.iter
    (fun (seq, payload) ->
      let i = inflight l seq payload in
      adopt_copies l i;
      Queue.push i l.unacked)
    ck.ck_unacked;
  reset_due l

let receiver_checkpoint t =
  let l = lossy_of "receiver_checkpoint" t in
  {
    ck_expected = l.expected;
    ck_resequencer = l.resequencer;
    ck_keys =
      (* The queue mirrors the hash table in delivery order, which is
         already deterministic; sorting by seq keeps the checkpoint
         bytes canonical even so. *)
      List.sort
        (fun (a, _) (b, _) -> Int.compare a b)
        (Queue.fold (fun acc entry -> entry :: acc) [] l.seen_order);
  }

let restore_receiver t ck =
  let l = lossy_of "restore_receiver" t in
  l.expected <- ck.ck_expected;
  l.resequencer <- ck.ck_resequencer;
  l.ack_pending <- false;
  Hashtbl.reset l.seen_keys;
  Queue.clear l.seen_order;
  List.iter
    (fun (seq, k) ->
      Hashtbl.replace l.seen_keys k ();
      Queue.push (seq, k) l.seen_order)
    ck.ck_keys

(* A connection reset: everything in flight (data and acks) is lost.
   The endpoints' shim state survives — or is restored from a
   checkpoint by the caller — and retransmission resynchronizes. *)
let drop_wire t =
  let l = lossy_of "drop_wire" t in
  let s = l.cfg.stats in
  iter_wire
    (fun w ->
      s.Stats.dropped <- s.Stats.dropped + 1;
      release_copy l w)
    l;
  Queue.clear l.ready;
  l.delayed <- [];
  l.ack_wire <- -1;
  l.ack_sack <- []
