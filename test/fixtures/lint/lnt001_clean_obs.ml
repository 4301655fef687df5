(* LNT001 accepts state reached through Obs *)
(* Obs owns its own synchronisation, so state under an Obs. path is
   sanctioned even when the closure mutates it. *)

module Exec = struct
  let map f xs = List.map f xs
end

module Obs = struct
  let hits = ref 0
end

let count xs = Exec.map (fun x -> incr Obs.hits; x) xs
