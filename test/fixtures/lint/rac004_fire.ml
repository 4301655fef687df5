(* RAC004 warns on Atomic.set of a get-derived value *)
(* A torn read-modify-write: another domain's increment can land between
   the get and the set and be overwritten; each access is atomic, the
   pair is not. *)

let hits = Atomic.make 0

let bump () = Atomic.set hits (Atomic.get hits + 1)
