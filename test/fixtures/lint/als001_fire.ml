(* ALS001 fires as an error on a capture-rooted mutation through a helper *)
(* A parallel closure mutates a flat buffer it reaches only through a
   captured record and a helper (a direct write would be LNT001's), which
   only the interprocedural summaries can see. *)

module Exec = struct
  let map f xs = List.map f xs
end

type acc = { buf : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t }

let bump (a : acc) x = Bigarray.Array1.set a.buf 0 x

let run (a : acc) xs = Exec.map (fun x -> bump a x; x) xs
