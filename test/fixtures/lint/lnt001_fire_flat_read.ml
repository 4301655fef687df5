(* LNT001 fires on a read-only capture of a flat buffer *)
(* The closure only reads the captured Bigarray, but another domain may be
   writing it: a flat buffer is mutable state however this closure uses
   it. *)

module Exec = struct
  let map f xs = List.map f xs
end

let sample (v : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t) xs =
  Exec.map (fun i -> Bigarray.Array1.get v i) xs
