(* RAC002 fires on an opaque callee inside a bare critical section *)
(* The callback is opaque: if it raises, the unlock on the fall-through
   path never runs and the mutex leaks; every later caller deadlocks on a
   lock nobody holds the right to release. *)

let lock = Mutex.create ()

let risky f =
  Mutex.lock lock;
  let r = f () in
  Mutex.unlock lock;
  r
