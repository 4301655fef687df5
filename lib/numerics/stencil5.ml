(* Pentadiagonal systems from 5-point stencils on an (nx * ny) tensor mesh
   with nodes ordered k = ix * ny + iy: the only nonzero diagonals are
   0, +-1 and +-m (m = ny).  Assembly writes those five flat diagonals
   directly; the solve expands them into a row-major band workspace and
   runs an LU without pivoting (the systems are diagonally dominant), with
   every inner loop a contiguous unsafe walk over one Fvec.  The workspace
   is owned by [t], so a solver that reuses one stencil across iterations
   allocates nothing per solve.

   Hot loops apply the Bigarray primitives directly (module alias [BA1])
   rather than through [Fvec]'s wrappers: without flambda — and dune's
   default dev profile also compiles every library with -opaque, so no
   cross-module call inlines — a call per element costs a function call
   plus float boxing, a ~5x slowdown measured on the LU inner loop. *)

module BA1 = Bigarray.Array1

type rows = {
  west : Fvec.t;
  south : Fvec.t;
  diag : Fvec.t;
  north : Fvec.t;
  east : Fvec.t;
  rhs : Fvec.t;
}

type t = {
  n : int;
  m : int;  (* far-diagonal offset: the inner (vertical) mesh dimension *)
  rows : rows;
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
    rows =
      {
        west = Fvec.create n;
        south = Fvec.create n;
        diag = Fvec.create n;
        north = Fvec.create n;
        east = Fvec.create n;
        rhs = Fvec.create n;
      };
    band = Fvec.create (n * ((2 * m) + 1));
  }

let order a = a.n
let offset a = a.m
let rhs a = a.rows.rhs
let rows a = a.rows

let diag_of a i j =
  if i < 0 || j < 0 || i >= a.n || j >= a.n then None
  else
    match j - i with
    | 0 -> Some a.rows.diag
    | -1 -> Some a.rows.south
    | 1 -> Some a.rows.north
    | d when d = -a.m -> Some a.rows.west
    | d when d = a.m -> Some a.rows.east
    | _ -> None

let get a i j = match diag_of a i j with Some d -> Fvec.get d i | None -> 0.0

let set a i j v =
  match diag_of a i j with
  | Some d -> Fvec.set d i v
  | None -> invalid_arg (Printf.sprintf "Stencil5.set: (%d, %d) off the stencil" i j)

(* Write a whole row at once; entries whose column falls outside the matrix
   (first/last rows and columns) are simply never read by [solve]/[mat_vec],
   so assembly can pass 0.0 for them unconditionally, and an assembler that
   visits every row needs no zeroing pass first. *)
let set_row a i ~west ~south ~diag ~north ~east ~rhs:r =
  if i < 0 || i >= a.n then invalid_arg "Stencil5.set_row";
  let d = a.rows in
  BA1.unsafe_set d.west i west;
  BA1.unsafe_set d.south i south;
  BA1.unsafe_set d.diag i diag;
  BA1.unsafe_set d.north i north;
  BA1.unsafe_set d.east i east;
  BA1.unsafe_set d.rhs i r

let mat_vec a x y =
  if Fvec.length x <> a.n || Fvec.length y <> a.n then
    invalid_arg "Stencil5.mat_vec: dimension mismatch";
  let { n; m; rows = { west; south; diag; north; east; _ }; _ } = a in
  for i = 0 to n - 1 do
    let s = ref (BA1.unsafe_get diag i *. BA1.unsafe_get x i) in
    if i >= m then s := !s +. (BA1.unsafe_get west i *. BA1.unsafe_get x (i - m));
    if i >= 1 then s := !s +. (BA1.unsafe_get south i *. BA1.unsafe_get x (i - 1));
    if i + 1 < n then s := !s +. (BA1.unsafe_get north i *. BA1.unsafe_get x (i + 1));
    if i + m < n then s := !s +. (BA1.unsafe_get east i *. BA1.unsafe_get x (i + m));
    BA1.unsafe_set y i !s
  done

let factorizations = Obs.Metrics.counter "numerics.stencil5.factorizations"

(* Expand diagonals into the band and factor it in place (LU, no pivoting;
   fill stays within the band): U on and above the diagonal, the
   multipliers of L below it.  Elimination is column-by-column in the same
   order as the generic band LU in test/banded.ml, so the float sequence —
   hence the result — matches that oracle bit for bit on the same matrix.
   Unrolling the update of row i by four keeps that: every element still
   gets its one [a -. f *. u], and no element depends on another. *)
let lu ~who a =
  let { n; m; rows = { west; south; diag; north; east; _ }; band } = a in
  let w = (2 * m) + 1 in
  Obs.Metrics.incr factorizations;
  Fvec.fill band 0.0;
  (* band.(i*w + (j - i + m)) = A(i, j).  Off-diagonals accumulate instead
     of assign: when m = 1 (a single-row mesh) the +-1 and +-m diagonals
     coincide, and [mat_vec] sums them — plain assignment would silently
     drop whichever was expanded first.  The band is zero-filled, so for
     m > 1 accumulation is the same stores as before. *)
  for i = 0 to n - 1 do
    let base = (i * w) + m in
    if i >= m then
      BA1.unsafe_set band (base - m) (BA1.unsafe_get band (base - m) +. BA1.unsafe_get west i);
    if i >= 1 then
      BA1.unsafe_set band (base - 1) (BA1.unsafe_get band (base - 1) +. BA1.unsafe_get south i);
    BA1.unsafe_set band base (BA1.unsafe_get diag i);
    if i + 1 < n then
      BA1.unsafe_set band (base + 1) (BA1.unsafe_get band (base + 1) +. BA1.unsafe_get north i);
    if i + m < n then
      BA1.unsafe_set band (base + m) (BA1.unsafe_get band (base + m) +. BA1.unsafe_get east i)
  done;
  for k = 0 to n - 1 do
    let pivot = BA1.unsafe_get band ((k * w) + m) in
    if Float.abs pivot < 1e-300 then
      failwith (Printf.sprintf "Stencil5.%s: zero pivot at row %d" who k);
    let last = Int.min (k + m) (n - 1) in
    (* Row k entries A(k, j) live at band.(k*w + m - k + j). *)
    let bk = (k * w) + m - k in
    for i = k + 1 to last do
      let bi = (i * w) + m - i in
      let f = BA1.unsafe_get band (bi + k) /. pivot in
      (* Stored even when zero: an entry too small for its pivot gives a
         multiplier that underflows to 0.0, and [substitute] must read that
         multiplier, not the entry. *)
      BA1.unsafe_set band (bi + k) f;
      if not (Float.equal f 0.0) then begin
        let j = ref (k + 1) in
        while !j + 3 <= last do
          let j0 = !j in
          BA1.unsafe_set band (bi + j0)
            (BA1.unsafe_get band (bi + j0) -. (f *. BA1.unsafe_get band (bk + j0)));
          BA1.unsafe_set band (bi + j0 + 1)
            (BA1.unsafe_get band (bi + j0 + 1) -. (f *. BA1.unsafe_get band (bk + j0 + 1)));
          BA1.unsafe_set band (bi + j0 + 2)
            (BA1.unsafe_get band (bi + j0 + 2) -. (f *. BA1.unsafe_get band (bk + j0 + 2)));
          BA1.unsafe_set band (bi + j0 + 3)
            (BA1.unsafe_get band (bi + j0 + 3) -. (f *. BA1.unsafe_get band (bk + j0 + 3)));
          j := j0 + 4
        done;
        for j = !j to last do
          BA1.unsafe_set band (bi + j)
            (BA1.unsafe_get band (bi + j) -. (f *. BA1.unsafe_get band (bk + j)))
        done
      end
    done
  done

let factor a = lu ~who:"factor" a

(* Forward then back substitution through the factored band.  Each dst.(i)
   takes its [-. f *. dst.(k)] updates in increasing k, as it did when the
   forward sweep ran inside the elimination, so the split costs no bit. *)
let substitute a ~dst =
  if Fvec.length dst <> a.n then invalid_arg "Stencil5.substitute: dst length mismatch";
  let { n; m; band; _ } = a in
  let w = (2 * m) + 1 in
  for k = 0 to n - 1 do
    let last = Int.min (k + m) (n - 1) in
    let xk = BA1.unsafe_get dst k in
    for i = k + 1 to last do
      let f = BA1.unsafe_get band ((i * w) + m - i + k) in
      if not (Float.equal f 0.0) then BA1.unsafe_set dst i (BA1.unsafe_get dst i -. (f *. xk))
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

let solve a ~dst =
  if Fvec.length dst <> a.n then invalid_arg "Stencil5.solve: dst length mismatch";
  lu ~who:"solve" a;
  Fvec.blit a.rows.rhs dst;
  substitute a ~dst
