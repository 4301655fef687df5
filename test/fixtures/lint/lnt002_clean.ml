(* LNT002 accepts Float.equal/Float.compare and non-float poly ops *)
(* Stays clean under LNT002: explicit float comparisons, and polymorphic
   operators instantiated at types that carry no floats. *)

let converged (residual : float) = Float.equal residual 0.0

let rank (a : float) (b : float) = Float.compare a b

let same_name (a : string) (b : string) = a = b

let ordered (a : int) (b : int) = compare a b <= 0
