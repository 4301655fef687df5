(* Generic banded matrices in LAPACK-style band storage with a no-pivot LU
   solve: the reference Stencil5 is tested against.  Stencil5 eliminates
   in minimum-degree order and this in natural order, so the two agree to
   rounding, not bit for bit.

   Band storage: band.(d).(j) holds A(j + d - ku, j) for diagonal offset
   d in [0, kl + ku], i.e. row index i = j + d - ku.  Column-oriented so the
   no-pivot LU walks columns contiguously. *)
type t = { n : int; kl : int; ku : int; band : float array array }

let create ~n ~kl ~ku =
  if n <= 0 || kl < 0 || ku < 0 then invalid_arg "Banded.create";
  { n; kl; ku; band = Array.make_matrix (kl + ku + 1) n 0.0 }

let in_band a i j =
  i >= 0 && j >= 0 && i < a.n && j < a.n && i - j <= a.kl && j - i <= a.ku

let get a i j = if in_band a i j then a.band.(i - j + a.ku).(j) else 0.0

let set a i j v =
  if not (in_band a i j) then
    invalid_arg (Printf.sprintf "Banded.set: (%d, %d) outside band" i j);
  a.band.(i - j + a.ku).(j) <- v

let add_to a i j v =
  if not (in_band a i j) then
    invalid_arg (Printf.sprintf "Banded.add_to: (%d, %d) outside band" i j);
  a.band.(i - j + a.ku).(j) <- a.band.(i - j + a.ku).(j) +. v

let clear a = Array.iter (fun row -> Array.fill row 0 a.n 0.0) a.band

let mat_vec a x =
  if Array.length x <> a.n then invalid_arg "Banded.mat_vec: dimension mismatch";
  let y = Array.make a.n 0.0 in
  for j = 0 to a.n - 1 do
    let xj = x.(j) in
    if not (Float.equal xj 0.0) then
      for d = 0 to a.kl + a.ku do
        let i = j + d - a.ku in
        if i >= 0 && i < a.n then y.(i) <- y.(i) +. (a.band.(d).(j) *. xj)
      done
  done;
  y

(* LU without pivoting.  For each column k, eliminate rows k+1 .. k+kl.
   Fill stays within the original band since there is no pivoting.
   Destroys [a]'s contents; raises [Failure] on a (near-)zero pivot. *)
let solve_in_place a b =
  if Array.length b <> a.n then invalid_arg "Banded.solve_in_place: dimension mismatch";
  let { n; kl; ku; band } = a in
  let x = Array.copy b in
  let idx i j = (i - j + ku, j) in
  let get_ i j =
    let d, c = idx i j in
    band.(d).(c)
  in
  let set_ i j v =
    let d, c = idx i j in
    band.(d).(c) <- v
  in
  for k = 0 to n - 1 do
    let pivot = get_ k k in
    if Float.abs pivot < 1e-300 then
      failwith (Printf.sprintf "Banded.solve_in_place: zero pivot at row %d" k);
    let imax = Int.min (k + kl) (n - 1) in
    let jmax = Int.min (k + ku) (n - 1) in
    for i = k + 1 to imax do
      let f = get_ i k /. pivot in
      if not (Float.equal f 0.0) then begin
        set_ i k f;
        for j = k + 1 to jmax do
          set_ i j (get_ i j -. (f *. get_ k j))
        done;
        x.(i) <- x.(i) -. (f *. x.(k))
      end
    done
  done;
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    let jmax = Int.min (i + ku) (n - 1) in
    for j = i + 1 to jmax do
      s := !s -. (get_ i j *. x.(j))
    done;
    x.(i) <- !s /. get_ i i
  done;
  x
