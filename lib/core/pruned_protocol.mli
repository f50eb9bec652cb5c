(** The CSS protocol with acknowledgement-driven state-space pruning —
    the executable answer to the metadata-overhead question the paper's
    conclusion raises.

    Without garbage collection, the n-ary ordered state-space (like the
    CSCW protocol's 2D spaces) grows for the lifetime of the execution
    (benchmark C5).  This variant adds the classic Jupiter remedy:

    - every client piggybacks on its update messages the highest
      serial number it has processed;
    - the server maintains the minimum acknowledged serial across all
      clients — the {e stable} prefix of the total order: every replica
      has processed those operations, and (by FIFO) every operation
      still in flight was generated on a context containing them;
    - the stable serial rides on every broadcast, and each replica
      {!State_space.compact}s its space onto the stable state.

    The protocol is built on {!Protocol}: each replica is a css
    replica plus a serial log and a compaction frontier, so it behaves
    as css does (the test suite replays identical schedules against
    both); only the metadata footprint changes.  The classic caveat
    applies: a client that never generates operations never
    acknowledges, so the stable prefix — and pruning — stalls
    (benchmark C7 quantifies both situations).  The remedy is the
    explicit heartbeat: {!client_heartbeat} carries the client's
    acknowledgement without an operation, and the server answers with
    a [Stable] notification when the stable prefix advances
    ([test_pruning.ml] exercises the stall and the fix). *)

open Rlist_ot

type c2s =
  | Update of {
      op : Op.t;
      ctx : Context.t;
      acked : int;  (** Highest serial this client has processed. *)
    }
  | Heartbeat of { acked : int }
      (** A bare acknowledgement from a silent client. *)

type s2c =
  | Deliver of {
      op : Op.t;
      ctx : Context.t;
      serial : int;
      origin : int;
      stable : int;  (** Minimum acknowledged serial across clients. *)
      base : int;
          (** The server's compaction frontier [ctx] is relative to.
              Spaces represent states relative to their own frontier
              (see {!State_space.compact}), so the receiving client
              widens [ctx] with the serials between its frontier and
              [base] before the lookup — they are always in its serial
              log, because [base] only ever covers operations every
              client acknowledged. *)
    }
  | Stable of { stable : int }
      (** The stable prefix advanced on acknowledgements alone. *)

include
  Rlist_sim.Protocol_intf.PROTOCOL with type c2s := c2s and type s2c := s2c

(** A heartbeat message for the engine to inject ([Transport.send] via
    the test harness, or any driver with access to the client): carries
    the client's current acknowledgement so a silent client no longer
    stalls everyone's compaction. *)
val client_heartbeat : client -> c2s

val client_space : client -> State_space.t

val server_space : server -> State_space.t

(** The serial up to which this replica has pruned. *)
val client_pruned_to : client -> int

val server_pruned_to : server -> int

