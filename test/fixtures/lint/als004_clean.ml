(* ALS004 accepts [@owned] as a deliberate-sharing assertion *)
(* ALS004 near miss: [@owned] asserts the sharing is deliberate (an
   interned read-only table, say). *)

let last : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t option ref =
  ref None

let[@owned] make n =
  let v = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  last := Some v;
  v
