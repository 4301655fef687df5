(* ALS002 fires on a parallel closure reentering the solver with shared scratch *)
(* The reentrancy shape: a parallel closure reenters the solver with one
   shared workspace, so every domain would relax into the same scratch.
   The escape shape (scratch stored into a ref) is als002_fire_escape.ml. *)

module Exec = struct
  let map f xs = List.map f xs
end

module Poisson = struct
  type scratch = {
    sys : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  }

  let relax (s : scratch) = Bigarray.Array1.set s.sys 0 1.0
end

type state = { scr : Poisson.scratch }

let sweep (st : state) xs = Exec.map (fun x -> Poisson.relax st.scr; x) xs
