(* LNT006 fires on an ordering at an 'a array element *)
(* Nothing pins the element type, so [<=] is inferred at a type variable:
   every comparison goes through caml_compare, boxing float elements. *)

let sorted xs =
  let ok = ref true in
  for i = 0 to Array.length xs - 2 do
    if xs.(i + 1) <= xs.(i) then ok := false
  done;
  !ok
