(* LNT001 fires on a mutation through a let alias of a captured array *)
(* [a] is a new name, not a new array: the write lands in [outer]. *)

module Exec = struct
  let map f xs = List.map f xs
end

let clear (outer : float array) xs =
  Exec.map (fun i -> let a = outer in a.(i) <- 0.0; i) xs
