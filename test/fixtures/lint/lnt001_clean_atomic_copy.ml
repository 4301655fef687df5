(* LNT001 accepts an Atomic.t capture and a fresh array copy *)
(* Atomics are the domain-safe counter; the array the closure writes is a
   copy it allocated itself. *)

module Exec = struct
  let map f xs = List.map f xs
end

let count (hits : int Atomic.t) (outer : float array) xs =
  Exec.map
    (fun i ->
      Atomic.incr hits;
      let a = Array.copy outer in
      a.(i) <- 0.0;
      i)
    xs
