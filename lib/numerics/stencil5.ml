(* Pentadiagonal systems from 5-point stencils on an (nx * ny) tensor mesh
   with nodes ordered k = ix * ny + iy: the only nonzero diagonals are
   0, +-1 and +-m (m = ny).  Assembly writes those five flat diagonals
   directly; the solve expands them into a row-major band workspace and
   runs an LU without pivoting (the systems are diagonally dominant), with
   every inner loop a contiguous unsafe walk over one Fvec.  The workspace
   is owned by [t], so a solver that reuses one stencil across iterations
   allocates nothing per solve.

   Hot loops apply the Bigarray primitives directly (module alias [BA1])
   rather than through [Fvec]'s wrappers: without flambda, a cross-module
   call neither inlines nor specialises the primitive, costing a function
   call plus float boxing per element — a ~5x slowdown measured on the LU
   inner loop. *)

module BA1 = Bigarray.Array1

type t = {
  n : int;
  m : int;  (* far-diagonal offset: the inner (vertical) mesh dimension *)
  dl2 : Fvec.t;  (* A(i, i-m), indexed by row i *)
  dl1 : Fvec.t;  (* A(i, i-1) *)
  d0 : Fvec.t;  (* A(i, i) *)
  du1 : Fvec.t;  (* A(i, i+1) *)
  du2 : Fvec.t;  (* A(i, i+m) *)
  rhs : Fvec.t;
  band : Fvec.t;  (* n rows x (2m+1) columns, row-major LU workspace *)
}

let create ~n ~m =
  if n <= 0 || m < 1 || m >= n then
    invalid_arg
      (Printf.sprintf "Stencil5.create: invalid shape n=%d m=%d (need n > 0 and 1 <= m < n)"
         n m);
  {
    n;
    m;
    dl2 = Fvec.create n;
    dl1 = Fvec.create n;
    d0 = Fvec.create n;
    du1 = Fvec.create n;
    du2 = Fvec.create n;
    rhs = Fvec.create n;
    band = Fvec.create (n * ((2 * m) + 1));
  }

let order a = a.n
let offset a = a.m
let rhs a = a.rhs

let diag_of a i j =
  if i < 0 || j < 0 || i >= a.n || j >= a.n then None
  else
    match j - i with
    | 0 -> Some a.d0
    | -1 -> Some a.dl1
    | 1 -> Some a.du1
    | d when d = -a.m -> Some a.dl2
    | d when d = a.m -> Some a.du2
    | _ -> None

let get a i j = match diag_of a i j with Some d -> Fvec.get d i | None -> 0.0

let set a i j v =
  match diag_of a i j with
  | Some d -> Fvec.set d i v
  | None -> invalid_arg (Printf.sprintf "Stencil5.set: (%d, %d) off the stencil" i j)

(* Write a whole row at once; entries whose column falls outside the matrix
   (first/last rows and columns) are simply never read by [solve]/[mat_vec],
   so assembly can pass 0.0 for them unconditionally.  A full [set_row]
   sweep replaces {!clear} for assemblers that visit every row. *)
let set_row a i ~west ~south ~diag ~north ~east ~rhs:r =
  if i < 0 || i >= a.n then invalid_arg "Stencil5.set_row";
  BA1.unsafe_set a.dl2 i west;
  BA1.unsafe_set a.dl1 i south;
  BA1.unsafe_set a.d0 i diag;
  BA1.unsafe_set a.du1 i north;
  BA1.unsafe_set a.du2 i east;
  BA1.unsafe_set a.rhs i r

let mat_vec a x y =
  if Fvec.length x <> a.n || Fvec.length y <> a.n then
    invalid_arg "Stencil5.mat_vec: dimension mismatch";
  let { n; m; dl2; dl1; d0; du1; du2; _ } = a in
  for i = 0 to n - 1 do
    let s = ref (BA1.unsafe_get d0 i *. BA1.unsafe_get x i) in
    if i >= m then s := !s +. (BA1.unsafe_get dl2 i *. BA1.unsafe_get x (i - m));
    if i >= 1 then s := !s +. (BA1.unsafe_get dl1 i *. BA1.unsafe_get x (i - 1));
    if i + 1 < n then s := !s +. (BA1.unsafe_get du1 i *. BA1.unsafe_get x (i + 1));
    if i + m < n then s := !s +. (BA1.unsafe_get du2 i *. BA1.unsafe_get x (i + m));
    BA1.unsafe_set y i !s
  done

(* Expand diagonals into the band, factor (LU, no pivoting; fill stays
   within the band) and solve.  Elimination is column-by-column in the same
   order as the generic band LU in test/banded.ml, so the float sequence —
   hence the result — matches that oracle bit for bit on the same matrix. *)
let solve a ~dst =
  if Fvec.length dst <> a.n then invalid_arg "Stencil5.solve: dst length mismatch";
  let { n; m; dl2; dl1; d0; du1; du2; rhs; band } = a in
  let w = (2 * m) + 1 in
  Fvec.fill band 0.0;
  (* band.(i*w + (j - i + m)) = A(i, j).  Off-diagonals accumulate instead
     of assign: when m = 1 (a single-row mesh) the +-1 and +-m diagonals
     coincide, and [mat_vec] sums them — plain assignment would silently
     drop whichever was expanded first.  The band is zero-filled, so for
     m > 1 accumulation is the same stores as before. *)
  let acc i v = BA1.unsafe_set band i (BA1.unsafe_get band i +. v) in
  for i = 0 to n - 1 do
    let base = (i * w) + m in
    if i >= m then acc (base - m) (BA1.unsafe_get dl2 i);
    if i >= 1 then acc (base - 1) (BA1.unsafe_get dl1 i);
    BA1.unsafe_set band base (BA1.unsafe_get d0 i);
    if i + 1 < n then acc (base + 1) (BA1.unsafe_get du1 i);
    if i + m < n then acc (base + m) (BA1.unsafe_get du2 i)
  done;
  Fvec.blit rhs dst;
  for k = 0 to n - 1 do
    let pivot = BA1.unsafe_get band ((k * w) + m) in
    if Float.abs pivot < 1e-300 then
      failwith (Printf.sprintf "Stencil5.solve: zero pivot at row %d" k);
    let imax = Int.min (k + m) (n - 1) in
    let jmax = Int.min (k + m) (n - 1) in
    (* Row k entries A(k, j) live at band.(k*w + m - k + j). *)
    let bk = (k * w) + m - k in
    for i = k + 1 to imax do
      let bi = (i * w) + m - i in
      let f = BA1.unsafe_get band (bi + k) /. pivot in
      if not (Float.equal f 0.0) then begin
        BA1.unsafe_set band (bi + k) f;
        for j = k + 1 to jmax do
          BA1.unsafe_set band (bi + j)
            (BA1.unsafe_get band (bi + j) -. (f *. BA1.unsafe_get band (bk + j)))
        done;
        BA1.unsafe_set dst i (BA1.unsafe_get dst i -. (f *. BA1.unsafe_get dst k))
      end
    done
  done;
  for i = n - 1 downto 0 do
    let bi = (i * w) + m - i in
    let s = ref (BA1.unsafe_get dst i) in
    let jmax = Int.min (i + m) (n - 1) in
    for j = i + 1 to jmax do
      s := !s -. (BA1.unsafe_get band (bi + j) *. BA1.unsafe_get dst j)
    done;
    BA1.unsafe_set dst i (!s /. BA1.unsafe_get band (bi + i))
  done
