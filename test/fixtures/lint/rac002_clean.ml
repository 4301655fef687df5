(* RAC002 accepts Mutex.protect and Fun.protect ~finally *)
(* RAC002 near miss: the same opaque callback under the same lock, but
   both sanctioned shapes release on every exit path — Mutex.protect,
   and a manual lock paired with Fun.protect ~finally. *)

let lock = Mutex.create ()

let safe f = Mutex.protect lock (fun () -> f ())

let also_safe f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
