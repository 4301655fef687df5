(* LNT003 accepts named handlers and re-raising catch-alls *)
(* Stays clean under LNT003: a named handler, and the sanctioned
   catch-all shape that re-raises after cleanup. *)

let lookup tbl k = try Some (Hashtbl.find tbl k) with Not_found -> None

let with_cleanup release f =
  try f () with
  | e ->
    release ();
    raise e
