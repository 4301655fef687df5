(* LNT001 fires on read-only Queue, Stack and Buffer captures *)
(* Only their lengths are read, but all three are mutable containers
   shared across domains. *)

module Exec = struct
  let map f xs = List.map f xs
end

let sizes (q : int Queue.t) (s : int Stack.t) (b : Buffer.t) xs =
  Exec.map (fun x -> Queue.length q + Stack.length s + Buffer.length b + x) xs
