(* Flat float64 vectors: Bigarray.Array1, C layout.  The solver hot path
   (TCAD field state, pentadiagonal assembly) lives on these so inner loops
   run over one contiguous, unboxed buffer with no per-element indirection.
   [unsafe_get]/[unsafe_set] skip the bounds check — use them only in loops
   whose index range is established once at entry. *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let raw n : t = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

let create n =
  let v = raw n in
  Bigarray.Array1.fill v 0.0;
  v

let init n f =
  let v = raw n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set v i (f i)
  done;
  v

let length = Bigarray.Array1.dim
let get (v : t) i = Bigarray.Array1.get v i
let set (v : t) i x = Bigarray.Array1.set v i x
let unsafe_get (v : t) i = Bigarray.Array1.unsafe_get v i
let fill (v : t) x = Bigarray.Array1.fill v x

let blit (src : t) (dst : t) = Bigarray.Array1.blit src dst

let copy v =
  let c = raw (length v) in
  blit v c;
  c

let map f v = init (length v) (fun i -> f (unsafe_get v i))

let for_all p v =
  let n = length v in
  let rec go i = i >= n || (p (unsafe_get v i) && go (i + 1)) in
  go 0

let max_abs_diff x y =
  if length x <> length y then
    invalid_arg
      (Printf.sprintf "Fvec.max_abs_diff: length mismatch (%d vs %d)" (length x) (length y));
  let m = ref 0.0 in
  for i = 0 to length x - 1 do
    m := Float.max !m (Float.abs (unsafe_get x i -. unsafe_get y i))
  done;
  !m
