(** An {e incorrect} OT protocol — the paper's running counterexample
    (Section 8.2, Example 8.1 and Figure 8).

    The server is a pure relay: it forwards original operations in
    arrival order without transforming them.  A replica receiving a
    remote operation transforms it against all the operations it has
    executed that are concurrent with it, in its own execution order —
    the classic dOPT-style integration — using a transformation whose
    insert/insert tie keeps {e both} positions
    ({!Rlist_ot.Transform.xform_no_priority}).

    Because concurrent operations are transformed in different orders
    at different replicas and the tie-break is not convergent, the
    protocol "satisfies neither the convergence properties nor the
    weak list specification" (Example 8.1); the test suite and the
    benchmark harness reproduce Figure 8's diverging lists with it. *)

open Rlist_ot

type c2s = {
  op : Op.t;
  clock : int array;  (** Vector clock: per-client operation counts
                          known at generation (index 0 unused). *)
}

type s2c = {
  op : Op.t;
  clock : int array;
  origin : int;
}

include
  Rlist_sim.Protocol_intf.PROTOCOL with type c2s := c2s and type s2c := s2c
