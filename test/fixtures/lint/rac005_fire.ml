(* RAC005 warns on blocking IO under a held mutex *)
(* A disk rename inside an exception-safe critical section: every domain
   contending for the mutex stalls behind the filesystem. *)

let lock = Mutex.create ()

let save path = Mutex.protect lock (fun () -> Sys.rename path (path ^ ".bak"))
