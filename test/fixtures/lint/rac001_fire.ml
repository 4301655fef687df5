(* RAC001 fires as an error on a lockset-inconsistent crossing read *)
(* The counter is written under its mutex everywhere but in the closure the
   parallel engine runs on other domains: the guard sets' intersection is
   empty (the Eraser conviction), and the guarded write shows locks in play. *)

module Exec = struct
  let map f xs = List.map f xs
end

type t = { lock : Mutex.t; mutable count : int }

let bump (t : t) =
  Mutex.lock t.lock;
  t.count <- t.count + 1;
  Mutex.unlock t.lock

let total (t : t) xs = Exec.map (fun x -> x + t.count) xs
