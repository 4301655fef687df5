(* Five-point-stencil systems on an (nx * ny) tensor mesh with nodes
   ordered k = ix * ny + iy: node k couples to k-1 and k+1 inside its mesh
   column (same ix) and to k-m and k+m (m = ny).  Assembly writes those
   five flat diagonals directly.  A +-1 entry that would cross a column
   (A(i, i-1) when i mod m = 0, A(i, i+1) when i mod m = m-1) is not part
   of the system: the mesh has no such edge, and keeping it would cost the
   factorization fill for nothing.

   [create] hands the mesh graph to [Sparse_lu], which orders it by
   minimum degree and factors without pivoting (the systems are diagonally
   dominant).  The five diagonals are views into that LU's value buffer,
   so assembly writes the matrix the factorization reads, with no copy.
   Everything is owned by [t], so a solver that reuses one stencil across
   iterations allocates nothing per solve.  [mat_vec] and [set_row] apply
   the Bigarray primitives directly, as [Sparse_lu]'s loops do. *)

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
  rows : rows;  (* views into [lu]'s value buffer, plus the rhs *)
  lu : Sparse_lu.t;
}

(* Whether the stencil holds A(i, i+d) for d = +-1: a neighbour inside
   i's mesh column.  When m = 1 every column is a single node, and the +-1
   diagonals coincide with the +-m ones, which carry the coupling. *)
let in_column ~n ~m i d =
  m > 1 && i + d >= 0 && i + d < n && if d > 0 then i mod m <> m - 1 else i mod m <> 0

let create ~n ~m =
  if n <= 0 || m < 1 || m >= n then
    invalid_arg
      (Printf.sprintf "Stencil5.create: invalid shape n=%d m=%d (need n > 0 and 1 <= m < n)"
         n m);
  (* The five diagonals are consecutive length-n runs of the LU's value
     buffer: west, south, diag, north, east.  Off-stencil slots are
     padding: row -1. *)
  let row s =
    let i = s mod n in
    let on_stencil =
      match s / n with
      | 0 -> i >= m
      | 1 -> in_column ~n ~m i (-1)
      | 2 -> true
      | 3 -> in_column ~n ~m i 1
      | _ -> i + m < n
    in
    if on_stencil then i else -1
  in
  let col s =
    let i = s mod n in
    match s / n with 0 -> i - m | 1 -> i - 1 | 2 -> i | 3 -> i + 1 | _ -> i + m
  in
  let lu = Sparse_lu.create (Sparse_lu.analyse ~n ~slots:(5 * n) ~row ~col) in
  let diagonal k = BA1.sub (Sparse_lu.values lu) (k * n) n in
  {
    n;
    m;
    rows =
      {
        west = diagonal 0;
        south = diagonal 1;
        diag = diagonal 2;
        north = diagonal 3;
        east = diagonal 4;
        rhs = Fvec.create n;
      };
    lu;
  }

let order a = a.n
let offset a = a.m
let rhs a = a.rows.rhs
let rows a = a.rows

(* +-m before +-1: when m = 1 the two coincide, and +-m is the coupling. *)
let diag_of a i j =
  let { n; m; _ } = a in
  if i < 0 || j < 0 || i >= n || j >= n then None
  else
    match j - i with
    | 0 -> Some a.rows.diag
    | d when d = -m -> Some a.rows.west
    | d when d = m -> Some a.rows.east
    | -1 when in_column ~n ~m i (-1) -> Some a.rows.south
    | 1 when in_column ~n ~m i 1 -> Some a.rows.north
    | _ -> None

let get a i j = match diag_of a i j with Some d -> Fvec.get d i | None -> 0.0

let set a i j v =
  match diag_of a i j with
  | Some d -> Fvec.set d i v
  | None -> invalid_arg (Printf.sprintf "Stencil5.set: (%d, %d) off the stencil" i j)

(* Write a whole row at once; entries the stencil does not hold (columns
   outside the matrix, ±1 across a mesh column) are simply never read, so
   assembly can pass anything for them, and an assembler that visits every
   row needs no zeroing pass first. *)
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
    if in_column ~n ~m i (-1) then
      s := !s +. (BA1.unsafe_get south i *. BA1.unsafe_get x (i - 1));
    if in_column ~n ~m i 1 then
      s := !s +. (BA1.unsafe_get north i *. BA1.unsafe_get x (i + 1));
    if i + m < n then s := !s +. (BA1.unsafe_get east i *. BA1.unsafe_get x (i + m));
    BA1.unsafe_set y i !s
  done

let factorizations = Obs.Metrics.counter "numerics.stencil5.factorizations"

let lu ~who a =
  Obs.Metrics.incr factorizations;
  try Sparse_lu.factor a.lu
  with Sparse_lu.Zero_pivot row ->
    failwith (Printf.sprintf "Stencil5.%s: zero pivot at row %d" who row)

let factor a = lu ~who:"factor" a

let substitute a ~dst =
  if Fvec.length dst <> a.n then invalid_arg "Stencil5.substitute: dst length mismatch";
  Sparse_lu.substitute a.lu ~dst

let solve a ~dst =
  if Fvec.length dst <> a.n then invalid_arg "Stencil5.solve: dst length mismatch";
  lu ~who:"solve" a;
  Fvec.blit a.rows.rhs dst;
  substitute a ~dst
