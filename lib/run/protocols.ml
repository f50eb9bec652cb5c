(* See protocols.mli. *)

open Rlist_model

type t =
  | Star of (module Rlist_sim.Protocol_intf.PROTOCOL)
  | Mesh of (module Rlist_sim.P2p_protocol_intf.P2P_PROTOCOL)

let all =
  [
    "css", Star (module Jupiter_css.Protocol);
    "cscw", Star (module Jupiter_cscw.Protocol);
    "rga", Star (module Jupiter_rga.Protocol);
    "naive", Star (module Jupiter_cscw.Naive_p2p);
    "css-pruned", Star (module Jupiter_css.Pruned_protocol);
    "logoot", Star (module Jupiter_logoot.Protocol);
    "css-seq", Star (module Jupiter_css.Sequencer_protocol);
    "treedoc", Star (module Jupiter_treedoc.Protocol);
    "css-p2p", Mesh (module Jupiter_css.Distributed_protocol);
    "ttf", Mesh (module Jupiter_ttf.Adopted_protocol);
  ]

let keys = List.map fst all

let find key = List.assoc_opt key all

module type ENGINE = sig
  val name : string

  type t

  val create :
    ?net:Rlist_net.Transport.config ->
    ?batching:bool ->
    ?gc:Rlist_gc.policy ->
    ?fastpath:Rlist_ot.Fastpath.t ->
    nclients:int ->
    unit ->
    t

  val attach_obs : t -> Rlist_obs.Obs.t -> unit

  val attach_recorder : t -> Rlist_obs.Recorder.t -> unit

  val run_random :
    ?intent:(client:int -> doc_length:int -> Intent.t) ->
    t ->
    rng:Random.State.t ->
    params:Rlist_sim.Schedule.random_params ->
    int

  val converged : t -> bool

  val documents : t -> (string * Document.t) list

  val trace : t -> Rlist_spec.Trace.t

  val total_ot_count : t -> int

  val total_metadata_size : t -> int
end

let engine = function
  | Star (module P) ->
    (module struct
      include Rlist_sim.Engine.Make (P)

      let name = P.name

      let create ?net ?batching ?gc ?fastpath ~nclients () =
        create ?net ?batching ?gc ?fastpath ~nclients ()

      let run_random ?intent t ~rng ~params =
        List.length (run_random ?intent t ~rng ~params)

      let documents t =
        (if P.server_is_replica then [ "server", server_document t ] else [])
        @ List.init (nclients t) (fun i ->
              "c" ^ string_of_int (i + 1), client_document t (i + 1))
    end : ENGINE)
  | Mesh (module P) ->
    (module struct
      include Rlist_sim.P2p_engine.Make (P)

      let name = P.name

      let create ?net ?batching ?gc ?fastpath ~nclients () =
        create ?net ?batching ?gc ?fastpath ~npeers:nclients ()

      let run_random ?intent t ~rng ~params =
        List.length (run_random ?intent t ~rng ~params)

      let documents t =
        List.init (npeers t) (fun i ->
            "p" ^ string_of_int (i + 1), document t (i + 1))
    end : ENGINE)
