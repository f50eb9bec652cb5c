(* Two documents, two domains, digest equality.

   The escape pass (DESIGN.md §15) proves statically that every
   engine-reachable mutable allocation is stack- or instance-confined;
   this harness is the dynamic witness that the verdict means what it
   claims.  Two independent documents run the same soak workload under
   different seeds, once sequentially on the calling domain and once
   with each document pinned to its own [Domain].  If any state were
   shared between engine instances, the domain run would race or
   diverge; because everything mutable is instance-confined, both runs
   must produce bit-identical document digests. *)

type result = {
  s_protocol : string;
  s_profile : Rlist_workload.Workload.profile;
  s_updates : int;
  s_seed_a : int;
  s_seed_b : int;
  s_single : string * string;
  s_sharded : string * string;
  s_equal : bool;
}

let one ?gc ?faults ~now ~protocol ~profile ~nclients ~updates ~chunk ~seed
    () =
  (Longrun.run ?gc ?faults ~now ~protocol ~profile ~nclients ~updates ~chunk
     ~seed ())
    .Longrun.l_digest

let run ?gc ?faults ~now ~protocol ~profile ~nclients ~updates ~chunk ~seed
    () =
  let doc s = one ?gc ?faults ~now ~protocol ~profile ~nclients ~updates ~chunk ~seed:s () in
  let seed_b = seed + 1 in
  (* single-domain reference: both documents on the calling domain *)
  let single = doc seed, doc seed_b in
  (* sharded run: one fresh domain per document *)
  let da = Domain.spawn (fun () -> doc seed) in
  let db = Domain.spawn (fun () -> doc seed_b) in
  let sharded = Domain.join da, Domain.join db in
  {
    s_protocol = protocol;
    s_profile = profile;
    s_updates = updates;
    s_seed_a = seed;
    s_seed_b = seed_b;
    s_single = single;
    s_sharded = sharded;
    s_equal =
      String.equal (fst single) (fst sharded)
      && String.equal (snd single) (snd sharded);
  }

let result_to_json r =
  let open Rlist_obs.Json in
  let pair (a, b) = List [ Str a; Str b ] in
  Obj
    [ "version", Int 1; "protocol", Str r.s_protocol;
      "profile", Str (Rlist_workload.Workload.profile_name r.s_profile);
      "updates", Int r.s_updates;
      "seeds", List [ Int r.s_seed_a; Int r.s_seed_b ];
      "single", pair r.s_single; "sharded", pair r.s_sharded;
      "equal", Bool r.s_equal ]

let pp ppf r =
  Format.fprintf ppf
    "shard-smoke %s/%s: %d updates x 2 documents@,\
    \  single-domain digests: %s %s@,\
    \  two-domain digests:    %s %s@,\
    \  %s@."
    r.s_protocol
    (Rlist_workload.Workload.profile_name r.s_profile)
    r.s_updates (fst r.s_single) (snd r.s_single) (fst r.s_sharded)
    (snd r.s_sharded)
    (if r.s_equal then "EQUAL: domain run matches the single-domain run"
     else "MISMATCH: sharded state is not confined")
