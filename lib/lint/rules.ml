type family =
  | Hygiene
  | Determinism
  | Exception_safety
  | Interface
  | Domain_safety

let family_name = function
  | Hygiene -> "hygiene"
  | Determinism -> "determinism"
  | Exception_safety -> "exception-safety"
  | Interface -> "interface"
  | Domain_safety -> "domain-safety"

let family_bit = function
  | Hygiene -> 1
  | Determinism -> 2
  | Exception_safety -> 4
  | Interface -> 8
  | Domain_safety -> 16

type t = {
  name : string;
  family : family;
  scope : string list option;
  summary : string;
  typed : bool;
  subsumes : string list;
}

(* The protocol libraries, where operation and state types carry
   semantically irrelevant fields and must only be compared with their
   dedicated functions. *)
let strict = Some [ "lib/core"; "lib/ot"; "lib/cscw" ]

(* Everything the differential runs and the bounded model checker
   replay byte-for-byte; lib/obs and bench are the sanctioned clock
   seams and stay outside. *)
let deterministic =
  Some [ "lib/core"; "lib/ot"; "lib/cscw"; "lib/net"; "lib/mc"; "lib/sim" ]

(* Code that must not raise.  The OT core plus the CSCW 2-D transform
   path: the functions whose totality Thm 7.1's differential evidence
   silently assumes.  And the readers of external text, which return an
   error instead: the line reader, schedule files, CSS snapshots and
   JSONL trace events. *)
let total_paths =
  Some
    [ "lib/ot"; "lib/cscw/two_d_space.ml"; "lib/obs/line_format.ml";
      "lib/sim/schedule_text.ml"; "lib/core/snapshot.ml"; "lib/obs/event.ml" ]

let libraries = Some [ "lib" ]

let rule ?(typed = false) ?(subsumes = []) name family scope summary =
  { name; family; scope; summary; typed; subsumes }

let all =
  [
    (* -- Hygiene: ports of the old textual scanner ------------------ *)
    rule "obj-magic" Hygiene None "Obj.magic is forbidden";
    rule "sys-time" Hygiene None
      "Sys.time measures CPU seconds; use the metrics clock or \
       Unix.gettimeofday (outside the deterministic core)";
    rule "poly-eq" Hygiene strict
      "polymorphic =/<> against a constructor; match instead";
    rule "poly-cmp" Hygiene strict
      "bare polymorphic compare; use the type's own compare";
    rule "poly-hash" Hygiene strict
      "Hashtbl.hash is structural and follows irrelevant fields";
    rule "parse-error" Hygiene None
      "the file does not parse (analysis impossible)";
    rule "unused-allow" Hygiene None
      "a [@lint.allow] suppression under which the named rule never \
       fires; remove the stale seam before it excuses a future bug";
    (* -- Determinism ------------------------------------------------ *)
    rule "rand-global" Determinism deterministic
      "global-state Random.* call; thread an explicit seeded \
       Random.State.t instead";
    rule "hashtbl-iter" Determinism deterministic
      "Hashtbl.iter/fold visits in hash-bucket order, which is not \
       deterministic across inputs; iterate a sorted view instead";
    rule "wall-clock" Determinism deterministic
      "wall-clock read in replayed code; take time through the \
       obs/bench clock seams";
    rule "float-format" Determinism deterministic
      "shortest-round-trip float formatting is representation- \
       sensitive; print with an explicit format (e.g. %.17g)";
    rule "print-direct" Determinism libraries
      "direct stdout/stderr write in library code; route output \
       through the obs sink or a caller-supplied formatter";
    rule "det-reach" Determinism None ~typed:true
      ~subsumes:
        [
          "rand-global";
          "hashtbl-iter";
          "wall-clock";
          "sys-time";
          "poly-hash";
          "float-format";
          "print-direct";
          "poly-eq";
          "poly-cmp";
        ]
      "a protocol entry point transitively reaches a nondeterministic \
       primitive (typed interprocedural pass over .cmt call graphs; \
       the finding prints the witness call chain)";
    (* -- Exception safety ------------------------------------------- *)
    rule "exn-partial" Exception_safety total_paths
      "partial construct in code that must not raise (raise/failwith/\
       invalid_arg/assert false/List.hd/Option.get/array access): OT \
       transforms must be total, text parsers return an error";
    (* -- Interface completeness ------------------------------------- *)
    rule "missing-mli" Interface libraries
      "library module without a matching .mli";
    (* -- Domain safety (shard readiness, ROADMAP item 2) ------------- *)
    rule "module-mutable" Domain_safety None ~typed:true
      "module-level mutable state (toplevel ref/Hashtbl/Buffer/array \
       or escaping mutable record) is shared the moment documents are \
       pinned to domains; confine it to a shard, make it atomic, or \
       carry a justified suppression";
    rule "escape" Domain_safety None ~typed:true
      "an engine-reachable mutable allocation escapes to module-level \
       state (typed value-flow pass over the .cmt corpus; the finding \
       prints the witness flow chain); escaping state is shared the \
       moment documents are pinned to domains";
  ]

let find name = List.find_opt (fun r -> String.equal r.name name) all

let applies r path =
  match r.scope with
  | None -> true
  | Some prefixes ->
    List.exists
      (fun p ->
        let lp = String.length p and lpath = String.length path in
        lpath >= lp
        && String.equal (String.sub path 0 lp) p
        && (lpath = lp || path.[lp] = '/'))
      prefixes

let subsumed_by ~typed_rule untyped_rule =
  match find typed_rule with
  | Some r -> r.typed && List.mem untyped_rule r.subsumes
  | None -> false
