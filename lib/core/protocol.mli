(** The CSS (Compact State-Space) Jupiter protocol (paper, Section 6).

    Every replica — the server and each client — runs the same uniform
    processing (Section 6.2) over its own n-ary ordered state-space.
    The server serializes operations and redirects the {e original}
    operations (not transformed ones, unlike the CSCW protocol) to all
    clients; the copy sent back to the originating client acts as the
    acknowledgement carrying the serial number.

    Proposition 6.6: replicas having processed the same set of
    operations have {e equal} state-spaces, so the system conceptually
    maintains a single compact state-space.  {!client_space} and
    {!server_space} expose the spaces so tests can verify this
    directly. *)

open Rlist_ot

type c2s = {
  op : Op.t;  (** Original operation. *)
  ctx : Context.t;  (** The state it was generated from. *)
}

type s2c = {
  op : Op.t;  (** Original operation, as redirected by the server. *)
  ctx : Context.t;
  serial : int;  (** Position in the server's total order. *)
  origin : int;  (** Generating client. *)
}

include
  Rlist_sim.Protocol_intf.PROTOCOL with type c2s := c2s and type s2c := s2c

val client_space : client -> State_space.t

val server_space : server -> State_space.t

(** {2 Observability}

    Install a {!State_space.set_observer} growth observer on a
    replica's space — the per-level hook the trace layer uses to emit
    [state_space_grow] events.  Uninstrumented replicas pay one branch
    per processed operation. *)

val client_set_space_observer :
  client ->
  (level:int -> states:int -> transitions:int -> ots:int -> unit) ->
  unit

val server_set_space_observer :
  server ->
  (level:int -> states:int -> transitions:int -> ots:int -> unit) ->
  unit

(** The states each replica went through, oldest first — its path
    through the state-space (Example 6.3), read off the space
    ({!State_space.final_path}).  A client rebuilt by {!rebuild_client}
    starts its path at the rebuilt final state. *)
val client_path : client -> State_space.state list

val server_path : server -> State_space.state list

(** {2 The replica core, for {!Pruned_protocol}} *)

type replica

val client_replica : client -> replica

val server_replica : server -> replica

val space : replica -> State_space.t

(** Membership and removal on the replica's serial-number table. *)
val serialized : replica -> Rlist_model.Op_id.t -> bool

val forget : replica -> Rlist_model.Op_id.t -> unit

(** [stamp t ~narrow batch] gives the batch's operations the server's
    next serials, in order, and processes them on the contexts [narrow]
    returns ([narrow] sees the batch's earlier serials); returns each
    operation with that context and its serial. *)
val stamp :
  server ->
  narrow:(Context.t -> Context.t) ->
  c2s list ->
  (Op.t * Context.t * int) list

(** {2 Introspection and reconstruction (for {!Snapshot})} *)

(** The client's persistent state: identifier, next sequence number,
    document, and serial-number bindings.  (The state-space is
    reachable through {!client_space}.) *)
val client_state :
  client -> int * int * Rlist_model.Document.t * (Rlist_model.Op_id.t * int) list

(** Rebuild a client from persisted state.  The state-space listing is
    in {!State_space.of_raw} form. *)
val rebuild_client :
  id:int ->
  next_seq:int ->
  doc:Rlist_model.Document.t ->
  serials:(Rlist_model.Op_id.t * int) list ->
  space:(State_space.state * State_space.transition list) list ->
  root:State_space.state ->
  final:State_space.state ->
  client
