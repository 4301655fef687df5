type t = float array

let create n x = Array.make n x
let check_same_length name x y =
  if Array.length x <> Array.length y then
    invalid_arg (Printf.sprintf "Vec.%s: length mismatch (%d vs %d)" name (Array.length x) (Array.length y))

let linspace a b n =
  if n < 2 then invalid_arg "Vec.linspace: need at least 2 points";
  let h = (b -. a) /. float_of_int (n - 1) in
  Array.init n (fun i -> a +. (h *. float_of_int i))

let add x y =
  check_same_length "add" x y;
  Array.init (Array.length x) (fun i -> x.(i) +. y.(i))

let max_abs_diff x y =
  check_same_length "max_abs_diff" x y;
  let m = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    m := Float.max !m (Float.abs (x.(i) -. y.(i)))
  done;
  !m
