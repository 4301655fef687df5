(* LNT001 fires on Exec.map closure mutating captured state *)
(* The closure handed to Exec.map mutates a ref it captured, and the one handed
   to Exec.map_array writes into a captured array.  The mock Exec has the shape
   of lib/exec, so the suffix match treats these calls like the real engine's. *)

module Exec = struct
  let map f xs = List.map f xs
  let map_array f xs = Array.map f xs
end

let sum_via_shared_ref xs =
  let total = ref 0.0 in
  let _ = Exec.map (fun x -> total := !total +. x; x) xs in
  !total

let fill_shared_array out xs =
  Exec.map_array (fun i -> out.(i) <- float_of_int i; i) xs
