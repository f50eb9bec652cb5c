(** The interprocedural passes over a {!Cmt_loader} corpus: the
    determinism-reachability check (call-graph BFS from protocol entry
    points to nondeterministic sinks, with witness chains) and the
    domain-safety inventory (module-level mutable state classified for
    the sharded-server plan, ROADMAP item 2). *)

val default_entries : string list
(** The protocol/engine surface: [transform], [integrate] (the CRDT
    half of {!Rlist_sim.Relay}), [server_receive*], [client_receive*],
    [Engine.*], [P2p_engine.*], [Mesh.*] (the engines' shared core),
    [State_space.add_*].  A pattern containing
    a dot matches a node's display name ([State_space.add_square]); a
    bare pattern matches the final name component only.  ['*'] is the
    one wildcard. *)

val entry_ids : Callgraph.t -> string list -> string list
(** Node ids matching any of the patterns, in definition order. *)

type reach = {
  r_entries : string list;  (** matched entry node ids *)
  r_reached : string list;  (** every node reachable from an entry *)
  r_findings : Finding.t list;
      (** one [det-reach] finding per reachable, unsuppressed sink
          site, witness chain attached (entry first, primitive last) *)
}

val det_reach : ?entries:string list -> Callgraph.t -> reach
(** BFS from all entries at once, so each sink's chain runs from its
    nearest entry.  Sink sites inside [lib/obs/] (the sanctioned
    observability seam) and sites with an in-scope [[@lint.allow]]
    naming the sink's rule, ["det-reach"], or ["all"] are exempt. *)

(** {1 Domain safety} *)

type mut_class =
  | Obs_seam  (** lives in [lib/obs/]: sanctioned, replay-invisible *)
  | Domain_confined  (** [Atomic.t]/[Mutex.t]/[Condition.t]: built for
                         cross-domain use *)
  | Shared_unsafe  (** plain mutable state a sharded server may race on *)

val class_name : mut_class -> string

type mut_entry = {
  m_id : string;  (** ["Flat_unit.Sub.name"] *)
  m_disp : string;  (** short display name *)
  m_file : string;
  m_line : int;
  m_col : int;
  m_kind : string;
      (** what makes it mutable: ["ref"], ["Hashtbl.t"], ["array"],
          ["record with mutable fields"], … *)
  m_class : mut_class;
  m_suppressed : bool;
      (** a [[@@lint.allow "module-mutable"]] (or file-wide allow)
          covers the binding; still listed in the report *)
}

val domain_scan : Cmt_loader.t -> mut_entry list
(** Every module-level binding whose type exposes mutability
    (containers looked through one level; record types resolved
    through the corpus), sorted by file and line. *)

val domain_findings : mut_entry list -> Finding.t list
(** A [module-mutable] finding for each unsuppressed shared-unsafe
    entry. *)

val domain_report_json :
  ?escaping_unsuppressed:int -> mut_entry list -> Rlist_obs.Json.t
(** The shard-readiness report: totals per class, a [shard_ready]
    verdict (no unsuppressed shared-unsafe state {e and} no
    unsuppressed escaping allocation from the escape pass — pass the
    count via [escaping_unsuppressed]), and every entry — including
    suppressed ones, which are the burn-down list. *)

val run : ?entries:string list -> Cmt_loader.t -> Finding.t list
(** Build the graph and run the determinism, domain-safety and escape
    passes; findings come back sorted. *)
