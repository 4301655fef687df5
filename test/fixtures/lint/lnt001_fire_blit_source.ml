(* LNT001 fires on an Array.blit whose captured array is only the source *)
(* The blit writes only the closure's own [dst], but the pass counts
   Array.blit's source as mutated too: a documented over-approximation. *)

module Exec = struct
  let map f xs = List.map f xs
end

let copies (src : float array) xs =
  Exec.map (fun n -> let dst = Array.make n 0.0 in Array.blit src 0 dst 0 n; dst) xs
