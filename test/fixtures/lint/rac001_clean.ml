(* RAC001 accepts the same lock held at every access *)
(* RAC001 near miss: every access to the counter — including the one in
   the domain-crossing closure — holds the same per-instance mutex, so
   the lockset intersection never becomes empty. *)

module Exec = struct
  let map f xs = List.map f xs
end

type t = { lock : Mutex.t; mutable count : int }

let bump (t : t) =
  Mutex.lock t.lock;
  t.count <- t.count + 1;
  Mutex.unlock t.lock

let total (t : t) xs =
  Exec.map
    (fun x ->
      Mutex.lock t.lock;
      let c = t.count in
      Mutex.unlock t.lock;
      x + c)
    xs
