(* ALS001 accepts a closure-local buffer through the same helper *)
(* ALS001 near miss: the same record-and-helper mutation, but the record
   (and its buffer) is allocated inside the closure — every domain gets
   its own, so there is nothing to race on. *)

module Exec = struct
  let map f xs = List.map f xs
end

type acc = { buf : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t }

let bump (a : acc) x = Bigarray.Array1.set a.buf 0 x

let run xs =
  Exec.map
    (fun x ->
      let a = { buf = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 4 } in
      bump a x;
      x)
    xs
