(* xoshiro256starstar (Blackman & Vigna), seeded via splitmix64.

   The four 64-bit state words live in a 32-byte buffer and the
   Box-Muller spare in a one-float array, so a draw reads and writes them
   unboxed: mutable [int64] fields or a [float option] would allocate a
   box on every update, about 30 minor words a normal draw. *)
type t = { s : Bytes.t; spare : float array; mutable has_spare : bool }

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let s = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_le s (8 * i) (splitmix64 state)
  done;
  { s; spare = [| 0.0 |]; has_spare = false }

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] next r =
  let open Int64 in
  let s = r.s in
  let s0 = Bytes.get_int64_le s 0 and s1 = Bytes.get_int64_le s 8 in
  let s2 = Bytes.get_int64_le s 16 and s3 = Bytes.get_int64_le s 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let t = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 t in
  let s3 = rotl s3 45 in
  Bytes.set_int64_le s 0 s0;
  Bytes.set_int64_le s 8 s1;
  Bytes.set_int64_le s 16 s2;
  Bytes.set_int64_le s 24 s3;
  result

let[@inline] float r =
  (* Top 53 bits -> [0, 1). *)
  let bits = Int64.shift_right_logical (next r) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let[@inline] gaussian r =
  if r.has_spare then begin
    r.has_spare <- false;
    r.spare.(0)
  end
  else begin
    let u = ref (float r) in
    let v = ref (float r) in
    while !u <= 1e-300 do
      u := float r;
      v := float r
    done;
    let radius = sqrt (-2.0 *. log !u) in
    let theta = 2.0 *. Float.pi *. !v in
    r.spare.(0) <- radius *. sin theta;
    r.has_spare <- true;
    radius *. cos theta
  end

let normal r ~mean ~sigma = mean +. (sigma *. gaussian r)

let int r ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next r) 1) (Int64.of_int bound))
