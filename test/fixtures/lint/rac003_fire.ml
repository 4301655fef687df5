(* RAC003 fires on both the re-acquisition and the order inversion *)
(* First a self-deadlock only the effect summaries can see: the helper
   re-acquires the non-reentrant mutex its caller still holds.  Then a
   lock-order inversion: [a] and [b] are taken in both orders, so two
   domains can each hold one and wait on the other forever. *)

let lock = Mutex.create ()

let helper () =
  Mutex.lock lock;
  Mutex.unlock lock

let outer () =
  Mutex.lock lock;
  helper ();
  Mutex.unlock lock

let a = Mutex.create ()
let b = Mutex.create ()

let forward () =
  Mutex.lock a;
  Mutex.lock b;
  Mutex.unlock b;
  Mutex.unlock a

let backward () =
  Mutex.lock b;
  Mutex.lock a;
  Mutex.unlock a;
  Mutex.unlock b
