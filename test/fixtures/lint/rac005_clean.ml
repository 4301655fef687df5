(* RAC005 accepts [@blocking_ok] as the sanctioned escape hatch *)
(* RAC005 near miss: the same rename under the same lock, but the
   binding carries [@blocking_ok] — IO under this lock is the design
   (write-behind shards work exactly like this), and the attribute is
   the reviewed, greppable record of that decision. *)

let lock = Mutex.create ()

let[@blocking_ok] save path =
  Mutex.protect lock (fun () -> Sys.rename path (path ^ ".bak"))
