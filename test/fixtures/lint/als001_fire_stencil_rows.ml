(* ALS001 fires on a shared scratch written through Stencil5.rows *)
(* [rows] is an external here, so no summary sees into it: only the
   primitive table can say that it returns the system's own buffers,
   which the closure then writes on every domain. *)

module Exec = struct
  let map f xs = List.map f xs
end

module Stencil5 = struct
  type rows = { diag : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t }
  type t = rows

  external rows : t -> rows = "%identity"
end

module Poisson = struct
  type scratch = { sys : Stencil5.t }
end

type job = { scratch : Poisson.scratch; gate : float }

let run (j : job) xs =
  Exec.map
    (fun x ->
      let r = Stencil5.rows j.scratch.Poisson.sys in
      Bigarray.Array1.set r.Stencil5.diag 0 (x +. j.gate);
      x)
    xs
