(* LNT002 fires on polymorphic =/compare at float *)
(* Bit-equality on computed floats is almost never meant. *)

let converged (residual : float) = residual = 0.0

let rank (a : float) (b : float) = compare a b
