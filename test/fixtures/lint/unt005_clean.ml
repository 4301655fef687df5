(* UNT005 stays silent on a dimensionless closure body *)
(* UNT005 near miss: the closure body is dimensionless, so nothing is
   lost through the container. *)
let good (xs : float list) = List.map (fun dv -> dv *. 2.0) xs
