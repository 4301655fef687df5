(* RAC004 accepts fetch_and_add and pure save/restore *)
(* RAC004 near miss: the increment goes through fetch_and_add (one
   indivisible RMW), and the save/restore pair stores back exactly the
   value it read — no computation in between, so nothing can be lost
   that the idiom did not intend to discard. *)

let hits = Atomic.make 0

let bump () = ignore (Atomic.fetch_and_add hits 1)

let with_reset f =
  let saved = Atomic.get hits in
  f ();
  Atomic.set hits saved
