(* See fastpath.mli. *)

type t = {
  mutable enabled : bool;
  mutable context_hits : int;
  mutable append_hits : int;
  mutable generic_squares : int;
}

let create ?(enabled = false) () =
  { enabled; context_hits = 0; append_hits = 0; generic_squares = 0 }

let reset t =
  t.context_hits <- 0;
  t.append_hits <- 0;
  t.generic_squares <- 0

let fields t =
  [
    "fastpath.context_hits", t.context_hits;
    "fastpath.append_hits", t.append_hits;
    "fastpath.generic_squares", t.generic_squares;
  ]
