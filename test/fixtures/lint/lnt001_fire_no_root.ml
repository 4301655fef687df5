(* LNT001 fires on a mutation with no identifier root *)
(* The mutated record comes back from a call, so the pass cannot prove it
   domain-local; the write is flagged rather than assumed fresh. *)

module Exec = struct
  let map f xs = List.map f xs
end

type cell = { mutable v : float }

let reset (f : int -> cell) xs = Exec.map (fun i -> (f i).v <- 0.0; i) xs
