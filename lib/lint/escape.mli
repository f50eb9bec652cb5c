(** The shard-confinement escape pass (DESIGN.md §15): a value-flow
    analysis over the {!Cmt_loader} corpus that classifies every
    mutable allocation — refs, arrays, bytes, Hashtbls, Queues,
    Stacks, Buffers, and records with mutable fields — by how far it
    travels from its allocation site.

    The analysis builds one global "held-by" graph whose nodes are
    allocation sites, per-function parameter/return summaries, and a
    single module-scope node; classification is reachability, and the
    BFS path is the witness flow chain attached to the finding.
    Instance-confined verdicts are what make ROADMAP item 2 safe:
    state reachable only through a constructor's return value is owned
    by whichever engine or document instance the caller builds, so
    pinning documents to domains cannot share it. *)

type verdict =
  | Stack_confined  (** never leaves the allocating function *)
  | Instance_confined
      (** leaves only via return values or caller-supplied structures:
          owned by one engine/document instance *)
  | Escaping  (** reachable from module-level state: shared across
                  every domain of a multi-domain server *)

val verdict_name : verdict -> string
(** ["stack-confined"] / ["instance-confined"] / ["escaping"]. *)

type alloc = {
  a_idx : int;
  a_def : string;  (** enclosing def node id (callgraph spelling) *)
  a_def_disp : string;  (** short display name, e.g. ["State_space.create"] *)
  a_file : string;
  a_line : int;
  a_col : int;
  a_kind : string;  (** ["ref"], ["Hashtbl.t"], ["mutable record t"], … *)
  a_exempt : bool;
      (** [Atomic.t]/[Mutex.t]/[Condition.t]: built for cross-domain
          sharing, never a finding — but still a graph node, so what
          is stored {e inside} one is tracked *)
  a_suppressed : bool;  (** [[@lint.allow "escape"]] in scope *)
  mutable a_verdict : verdict;
  mutable a_chain : string list;
      (** witness flow chain, allocation first, each hop a labelled
          edge ("stored into field fp (lib/core/state_space.ml:72)",
          "returned from State_space.create", …) *)
  mutable a_reachable : bool;
      (** the enclosing definition is reachable from a protocol/engine
          entry point (the det-reach BFS set) *)
}

type result = { allocs : alloc list }

val analyze : ?reached:string list -> Cmt_loader.t -> result
(** Run the pass.  [reached] is the determinism pass's
    entry-reachability set ({!Typed.reach}[.r_reached]); allocations
    whose enclosing definition is in it are flagged engine-reachable
    and eligible for findings.  Allocations inside [lib/obs/] (the
    sanctioned observability seam) are not inventoried. *)

val findings : result -> Finding.t list
(** One [escape] finding per engine-reachable, unsuppressed,
    non-exempt escaping allocation, witness chain attached. *)

val unsuppressed_escaping : result -> int
(** Count behind {!findings} — the number that gates [shard_ready]. *)

val report_json : result -> Rlist_obs.Json.t
(** The full inventory as JSON: totals per class and every allocation
    with verdict, witness chain, reachability, exemption and
    suppression bits (the [--escape-report] artifact). *)
