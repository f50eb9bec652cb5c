(** The interface for fully distributed (server-less) replicated-list
    protocols: [n] peers, pairwise FIFO channels, broadcast-based
    dissemination.

    This is the substrate for the paper's first future-work direction:
    running the CSS protocol over "a distributed scheme to totally
    order operations" instead of a central server. *)

(* Interface-carrier module: this file holds module types only and
   *is* the interface; a duplicated .mli would just drift. *)
[@@@lint.allow "missing-mli"]

open Rlist_model

module type P2P_PROTOCOL = sig
  val name : string

  type peer

  type message

  (** [fastpath] is the engine run's ladder accounting record
      ({!Rlist_ot.Fastpath}), one record shared by every peer of a
      run; peers without Algorithm 1 ladders ignore it. *)
  val create_peer :
    fastpath:Rlist_ot.Fastpath.t ->
    npeers:int ->
    id:int ->
    initial:Document.t ->
    peer

  (** Perform a user intent; the returned message, if any, is
      broadcast to every other peer.
      @raise Invalid_argument on out-of-bounds positions. *)
  val generate : peer -> Intent.t -> Protocol_intf.do_outcome * message option

  (** Receive the messages of one channel delivery from peer [from], in
      order: a single message, or a coalesced batch from one channel
      flush.  The returned reactions (e.g. clock announcements for
      stability detection) are broadcast in order.  A batch must be
      observably identical to receiving its messages one by one.
      Reactions to reactions must eventually stop for executions to
      quiesce. *)
  val receive : peer -> from:int -> message list -> message list

  (** The identifier of the operation a message carries, for trace
      labelling; [None] for control messages (clock announcements). *)
  val message_op_id : message -> Op_id.t option

  val document : peer -> Document.t

  val visible : peer -> Op_id.Set.t

  val ot_count : peer -> int

  val metadata_size : peer -> int

  (** Operations received but not yet integrated (awaiting
      stability). *)
  val buffered : peer -> int
end
