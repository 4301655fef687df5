(* LNT006 accepts a float array annotation, Float.compare and int max *)
(* The same loop with the element type annotated, a monomorphic float
   comparison, and an ordering at a concrete type. *)

let sorted (xs : float array) =
  let ok = ref true in
  for i = 0 to Array.length xs - 2 do
    if xs.(i + 1) <= xs.(i) then ok := false
  done;
  !ok

let first_below xs v = Array.exists (fun x -> Float.compare x v < 0) xs

let widest (a : int) b = max a b
