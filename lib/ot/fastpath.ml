(* See fastpath.mli. *)

type t = {
  mutable context_hits : int;
  mutable generic_squares : int;
}

let create ?enabled:_ () = { context_hits = 0; generic_squares = 0 }

let fields t =
  [
    "fastpath.context_hits", t.context_hits;
    "fastpath.generic_squares", t.generic_squares;
  ]
