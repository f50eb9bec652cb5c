(** The CSCW Jupiter protocol (paper, Section 5): the complete
    multi-client description of the original Jupiter two-way
    synchronization protocol.

    Each client maintains one 2D state-space ({!Two_d_space}); the
    server maintains one per client — [2n] spaces in total for [n]
    clients, against which the CSS protocol's single compact space is
    measured.  The server serializes operations; it propagates
    {e transformed} operations [o{L1}] (unlike the CSS protocol, which
    redirects originals), which is exactly the implementation
    optimization eliminating redundant OTs at clients (Section 7.2).

    Messages carry the classic Jupiter state-vector counters: a client
    message says how many server messages the client had seen; a
    server message says how many of the destination's own operations
    the server had processed.  The message sent back to the
    originating client is a pure acknowledgement, keeping the message
    schedule aligned with the CSS protocol for the equivalence theorem
    (Theorem 7.1). *)

open Rlist_ot

type c2s = {
  op : Op.t;  (** Original operation. *)
  seen : int;  (** Server messages (remote operations) the client had
                   received when generating it. *)
}

type s2c =
  | Forward of {
      op : Op.t;  (** The operation transformed at the server,
                      [o{L1}]. *)
      ack_local : int;  (** Operations of the {e destination} client
                            the server had processed. *)
    }
  | Ack  (** The destination's own oldest unacknowledged operation was
             processed by the server. *)

include
  Rlist_sim.Protocol_intf.PROTOCOL with type c2s := c2s and type s2c := s2c
