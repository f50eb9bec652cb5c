open Rlist_model

type spec =
  | Convergence
  | Weak
  | Strong

let spec_name = function
  | Convergence -> "convergence"
  | Weak -> "weak"
  | Strong -> "strong"

let spec_of_name = function
  | "convergence" -> Some Convergence
  | "weak" -> Some Weak
  | "strong" -> Some Strong
  | _ -> None

let all_specs = [ Convergence; Weak; Strong ]

type 'action outcome = {
  workload : Workload.t;
  stats : Explore.stats;
  violations : 'action Explore.violation list;
}

let equal_intent a b =
  match (a, b) with
  | Intent.Read, Intent.Read -> true
  | Intent.Insert (c1, p1), Intent.Insert (c2, p2) ->
    Char.equal c1 c2 && p1 = p2
  | Intent.Delete p1, Intent.Delete p2 -> p1 = p2
  | (Intent.Read | Intent.Insert _ | Intent.Delete _), _ -> false

let is_update_intent = function
  | Intent.Insert _ | Intent.Delete _ -> true
  | Intent.Read -> false

(* Shared by both checkers: replay a found violation's schedule on a
   fresh system, tolerate unreplayable candidates, and minimize. *)
let shrink_violations (type sys action)
    ~(fresh : unit -> sys)
    ~(apply : sys -> action -> unit)
    ~(checks : sys -> action list -> (string * Rlist_spec.Check.result) list)
    violations =
  let replay_verdict spec schedule =
    let t = fresh () in
    match List.iter (apply t) schedule with
    | exception Invalid_argument _ -> None
    | () -> List.assoc_opt spec (checks t schedule)
  in
  let shrink_one (v : action Explore.violation) =
    let still_fails candidate =
      match replay_verdict v.Explore.v_spec candidate with
      | Some (Rlist_spec.Check.Violated _) -> true
      | Some Rlist_spec.Check.Satisfied | None -> false
    in
    let v_schedule = Witness.shrink ~still_fails v.Explore.v_schedule in
    let v_result =
      (* Re-derive the verdict from the minimized schedule so its
         reason and culprits describe the witness we print. *)
      match replay_verdict v.Explore.v_spec v_schedule with
      | Some r -> r
      | None -> v.Explore.v_result
    in
    { v with Explore.v_schedule; v_result }
  in
  List.map shrink_one violations

let diverged ~spec =
  Rlist_spec.Check.violated ~spec ~culprits:[]
    "replicas hold different documents at quiescence"

let behavior_of ?(batching = false) (module P : Rlist_sim.Protocol_intf.PROTOCOL)
    ~nclients ~initial schedule =
  let module E = Rlist_sim.Engine.Make (P) in
  let e = E.create ~initial ~batching ~nclients () in
  E.run e schedule;
  E.behavior e

let compare_behaviors ~spec mine theirs =
  let pp_step ppf (r, d) =
    Format.fprintf ppf "%a:%a" Replica_id.pp r Document.pp d
  in
  let rec go i mine theirs =
    match (mine, theirs) with
    | [], [] -> Rlist_spec.Check.Satisfied
    | [], step :: _ | step :: _, [] ->
      Rlist_spec.Check.violated ~spec ~culprits:[]
        (Format.asprintf "behaviours differ in length at step %d (%a)" i
           pp_step step)
    | (r1, d1) :: rest1, (r2, d2) :: rest2 ->
      if Replica_id.equal r1 r2 && Document.equal d1 d2 then
        go (i + 1) rest1 rest2
      else
        Rlist_spec.Check.violated ~spec ~culprits:[]
          (Format.asprintf "behaviours diverge at step %d: %a vs %a" i
             pp_step (r1, d1) pp_step (r2, d2))
  in
  go 0 mine theirs

(* What one engine shape contributes to a checker: the engine, its
   action type, and the shape's own enabled deliveries, independence
   relation and footprint.  Script bookkeeping, the generate frontier,
   final reads, the per-spec checks, exploration and shrinking are
   {!Checker}'s, shared by both shapes. *)
module type SHAPE = sig
  type t

  type action

  val make :
    initial:Document.t -> batching:bool -> gc:Rlist_gc.policy option -> int ->
    t

  val apply_event : t -> action -> unit

  val generate : int -> Intent.t -> action

  val generated : action -> (int * Intent.t) option

  val document : t -> int -> Document.t

  val deliveries : t -> action list

  val equal_action : action -> action -> bool

  val independent : batching:bool -> action -> action -> bool

  val footprint : batching:bool -> n:int -> action -> (int * char) list

  val pending_messages : t -> int

  val converged : t -> bool

  val trace : t -> Rlist_spec.Trace.t

  val pp_action : Format.formatter -> action -> unit
end

module Checker (S : SHAPE) = struct
  let system ~(workload : Workload.t) ~specs ~batching ~gc ~extra :
      (module Explore.SYSTEM with type action = S.action) =
    let n = workload.Workload.nclients in
    if n > 8 then invalid_arg "Mc.check: at most 8 clients or peers";
    (module struct
      type t = {
        e : S.t;
        scripts : Intent.t list array;
      }

      type action = S.action

      let fresh () =
        {
          e = S.make ~initial:workload.Workload.initial ~batching ~gc n;
          scripts = Array.copy workload.Workload.scripts;
        }

      let apply t ev =
        (match S.generated ev with
        | Some (i, _) -> (
          (* The event already carries its clamped intent; the script
             slot only gates [enabled].  Tolerate an exhausted slot so
             shrunk candidate schedules remain replayable. *)
          match t.scripts.(i) with
          | [] -> ()
          | _ :: tl -> t.scripts.(i) <- tl)
        | None -> ());
        S.apply_event t.e ev

      let enabled t =
        let gens = ref [] in
        for i = n downto 1 do
          match t.scripts.(i) with
          | [] -> ()
          | intent :: _ ->
            let doc_length = Document.length (S.document t.e i) in
            gens := S.generate i (Workload.clamp ~doc_length intent) :: !gens
        done;
        !gens @ S.deliveries t.e

      let equal_action = S.equal_action

      let independent = S.independent ~batching

      let footprint = S.footprint ~batching ~n

      let nslots = n + 1

      let finalize t =
        let reads = List.init n (fun i -> S.generate (i + 1) Intent.Read) in
        List.iter (apply t) reads;
        reads

      let checks t schedule =
        let trace = lazy (S.trace t.e) in
        List.map
          (fun spec ->
            let name = spec_name spec in
            let result =
              match spec with
              | Convergence ->
                (* Replica equality is only judged at quiescence;
                   shrunk candidate schedules with messages still in
                   flight fall back to the trace-level check. *)
                if S.pending_messages t.e = 0 && not (S.converged t.e) then
                  diverged ~spec:name
                else Rlist_spec.Convergence.check (Lazy.force trace)
              | Weak -> Rlist_spec.Weak_spec.check (Lazy.force trace)
              | Strong -> Rlist_spec.Strong_spec.check (Lazy.force trace)
            in
            (name, result))
          specs
        @ extra workload t.e schedule
    end)

  let check ~extra ?gc ?(por = true) ?(max_states = 500_000) ?(shrink = true)
      ?(batching = false) ~specs ~workload () =
    let module Sys = (val system ~workload ~specs ~batching ~gc ~extra) in
    let module X = Explore.Make (Sys) in
    let report = X.run ~por ~max_states () in
    let violations =
      if shrink then
        shrink_violations ~fresh:Sys.fresh ~apply:Sys.apply
          ~checks:Sys.checks report.X.violations
      else report.X.violations
    in
    { workload; stats = report.X.stats; violations }

  let pp_violation ppf v =
    Witness.pp ~pp_action:S.pp_action
      ~is_generate:(fun a ->
        match S.generated a with
        | Some (_, intent) -> is_update_intent intent
        | None -> false)
      ppf v
end

let replicas n = List.init n (fun i -> i + 1)

module Cs (P : Rlist_sim.Protocol_intf.PROTOCOL) = struct
  module E = Rlist_sim.Engine.Make (P)
  module S = Rlist_sim.Schedule

  module C = Checker (struct
    include E

    type action = S.event

    let make ~initial ~batching ~gc n =
      create ~initial ~batching ?gc ~nclients:n ()

    let generate i intent = S.Generate (i, intent)

    let generated = function
      | S.Generate (i, intent) -> Some (i, intent)
      | S.Deliver_to_server _ | S.Deliver_to_client _ -> None

    let document = client_document

    let deliveries e =
      let pending depth deliver =
        List.filter_map
          (fun i -> if depth e i > 0 then Some (deliver i) else None)
          (replicas (nclients e))
      in
      pending pending_to_server (fun i -> S.Deliver_to_server i)
      @ pending pending_to_client (fun i -> S.Deliver_to_client i)

    let equal_action a b =
      match (a, b) with
      | S.Generate (i, x), S.Generate (j, y) -> i = j && equal_intent x y
      | S.Deliver_to_server i, S.Deliver_to_server j -> i = j
      | S.Deliver_to_client i, S.Deliver_to_client j -> i = j
      | (S.Generate _ | S.Deliver_to_server _ | S.Deliver_to_client _), _ ->
        false

    (* Client [i]'s generate touches client [i] and the back of its
       to-server queue; a to-server delivery touches the server and
       the front of that queue (push-back and pop-front commute); a
       to-client delivery touches client [i] and the front of its
       from-server queue.  Only the server serializes: to-server
       deliveries conflict with each other, and nothing else does
       except actions on the same client.

       Batching shrinks the relation: a delivery flushes the target
       channel's outbox, so it no longer commutes with the sends
       that feed that outbox — the batch boundary (hence the batch
       handed to the protocol) depends on the order.  A to-server
       delivery conflicts with the same client's generate (its
       to-server outbox) and with every to-client delivery (it
       appends to all from-server outboxes). *)
    let independent ~batching a b =
      match (a, b) with
      | S.Generate (i, _), S.Generate (j, _) -> i <> j
      | S.Generate (i, _), S.Deliver_to_client j
      | S.Deliver_to_client j, S.Generate (i, _) ->
        i <> j
      | S.Generate (i, _), S.Deliver_to_server j
      | S.Deliver_to_server j, S.Generate (i, _) ->
        (not batching) || i <> j
      | S.Deliver_to_server _, S.Deliver_to_server _ -> false
      | S.Deliver_to_server _, S.Deliver_to_client _
      | S.Deliver_to_client _, S.Deliver_to_server _ ->
        not batching
      | S.Deliver_to_client i, S.Deliver_to_client j -> i <> j

    (* Unbatched, each action extends one local history.  Batched, a
       to-server delivery also extends every client's from-server
       outbox and flushes client [i]'s to-server outbox, so its token
       lands in every slot: per-slot projections again determine the
       configuration (each client slot orders its generates, its
       incoming deliveries, and all batch-boundary events; slot 0
       orders the server's serialization). *)
    let footprint ~batching ~n = function
      | S.Generate (i, _) -> [ (i, 'g') ]
      | S.Deliver_to_server i ->
        let token = Char.chr (Char.code '0' + i) in
        if batching then (0, token) :: List.init n (fun j -> (j + 1, token))
        else [ (0, token) ]
      | S.Deliver_to_client i -> [ (i, 'r') ]

    let pp_action = S.pp_event
  end)

  let equiv_check equiv (workload : Workload.t) e schedule =
    match equiv with
    | None -> []
    | Some (name, replay) ->
      let result =
        match
          replay ~nclients:workload.Workload.nclients
            ~initial:workload.Workload.initial schedule
        with
        | exception Invalid_argument msg ->
          Rlist_spec.Check.violated ~spec:name ~culprits:[]
            ("partner protocol cannot replay the schedule: " ^ msg)
        | theirs -> compare_behaviors ~spec:name (E.behavior e) theirs
      in
      [ (name, result) ]

  let check ?equiv ?gc ?por ?max_states ?shrink ?batching ~specs ~workload
      () =
    C.check ~extra:(equiv_check equiv) ?gc ?por ?max_states ?shrink
      ?batching ~specs ~workload ()

  let pp_violation = C.pp_violation
end

module P2p (P : Rlist_sim.P2p_protocol_intf.P2P_PROTOCOL) = struct
  module E = Rlist_sim.P2p_engine.Make (P)
  module Ev = Rlist_sim.P2p_engine

  module C = Checker (struct
    include E

    type action = Ev.event

    let make ~initial ~batching ~gc n =
      create ~initial ~batching ?gc ~npeers:n ()

    let generate i intent = Ev.Generate (i, intent)

    let generated = function
      | Ev.Generate (i, intent) -> Some (i, intent)
      | Ev.Deliver _ -> None

    let deliveries e =
      let peers = replicas (npeers e) in
      List.concat_map
        (fun dst ->
          List.filter_map
            (fun src ->
              if src <> dst && channel_depth e ~src ~dst > 0 then
                Some (Ev.Deliver (src, dst))
              else None)
            peers)
        peers

    let equal_action a b =
      match (a, b) with
      | Ev.Generate (i, x), Ev.Generate (j, y) -> i = j && equal_intent x y
      | Ev.Deliver (s1, d1), Ev.Deliver (s2, d2) -> s1 = s2 && d1 = d2
      | (Ev.Generate _ | Ev.Deliver _), _ -> false

    (* A generate touches peer [i] and the backs of its outgoing
       channels; a delivery touches peer [dst], the front of one
       incoming channel, and (reactions) the backs of [dst]'s
       outgoing channels.  Two actions conflict exactly when they
       touch the same peer's state.

       Batching adds outbox conflicts (see the Cs relation): a
       delivery from [src] flushes the [src->dst] outbox, which the
       generates of [src] and the reactions of deliveries into [src]
       feed, so those pairs no longer commute. *)
    let independent ~batching a b =
      match (a, b) with
      | Ev.Generate (i, _), Ev.Generate (j, _) -> i <> j
      | Ev.Generate (i, _), Ev.Deliver (s, d)
      | Ev.Deliver (s, d), Ev.Generate (i, _) ->
        if batching then d <> i && s <> i else d <> i
      | Ev.Deliver (s1, d1), Ev.Deliver (s2, d2) ->
        if batching then d1 <> d2 && d1 <> s2 && d2 <> s1 else d1 <> d2

    (* Batched, a delivery also marks the source slot — with a token
       naming the destination, so the source slot records {e which}
       of its outboxes was flushed (two flushes towards different
       peers leave different batch contents behind and must not
       collapse to one cache key). *)
    let footprint ~batching ~n:_ = function
      | Ev.Generate (i, _) -> [ (i, 'g') ]
      | Ev.Deliver (src, dst) ->
        let token = Char.chr (Char.code '0' + src) in
        if batching then [ (dst, token); (src, Char.chr (Char.code 'A' + dst)) ]
        else [ (dst, token) ]

    let pp_action = Ev.pp_event
  end)

  let check = C.check ~extra:(fun _ _ _ -> [])

  let pp_violation = C.pp_violation
end
