(** The star relay shared by the CRDT baselines.

    The server holds a replica of its own and relays every client
    operation in arrival order — total-order (hence causal) delivery
    over the FIFO channels, the setting in which the CRDTs'
    integration is correct.  No transformation ever happens;
    convergence comes from the commutativity of integration (paper,
    Section 9).  The originator receives {!Protocol_intf.CRDT.ack}
    instead of its own operation, so every update produces one
    server-to-client message per client, as in the Jupiter protocols
    (Theorem 7.1's comparable schedules).

    A batch is the in-order fold: CRDT integration has no per-run
    shortcut.  There is no transformation ([*_ot_count] is [0]) and
    no ack-driven pruning ([gc_support = None]). *)

module Make (L : Protocol_intf.CRDT) : sig
  include Protocol_intf.PROTOCOL with type s2c := L.s2c

  val client_list : client -> L.t
end
