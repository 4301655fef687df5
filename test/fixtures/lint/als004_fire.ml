(* ALS004 warns on a returned buffer that is also retained *)
(* The caller receives a buffer someone else can still mutate. *)

let last : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t option ref =
  ref None

let make n =
  let v = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  last := Some v;
  v
