(* RAC003 accepts release-before-call and a consistent lock order *)
(* RAC003 near miss: the helper only runs after its caller released the
   mutex, and the two-lock functions agree on one acquisition order, so
   neither the re-acquisition nor the inversion check has anything to
   say. *)

let lock = Mutex.create ()

let helper () =
  Mutex.lock lock;
  Mutex.unlock lock

let outer () =
  Mutex.lock lock;
  Mutex.unlock lock;
  helper ()

let a = Mutex.create ()
let b = Mutex.create ()

let forward () =
  Mutex.lock a;
  Mutex.lock b;
  Mutex.unlock b;
  Mutex.unlock a

let also_forward () =
  Mutex.lock a;
  Mutex.lock b;
  Mutex.unlock b;
  Mutex.unlock a
