(* LNT003 fires on both catch-all shapes *)
(* Both swallow whatever was raised, solver non-convergence included. *)

let swallow_try f = try f () with _ -> 0

let swallow_match f = match f () with v -> v | exception _ -> 0
