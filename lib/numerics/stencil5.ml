(* Five-point-stencil systems on an (nx * ny) tensor mesh with nodes
   ordered k = ix * ny + iy: node k couples to k-1 and k+1 inside its mesh
   column (same ix) and to k-m and k+m (m = ny).  Assembly writes those
   five flat diagonals directly.  A +-1 entry that would cross a column
   (A(i, i-1) when i mod m = 0, A(i, i+1) when i mod m = m-1) is not part
   of the system: the mesh has no such edge, and keeping it would cost the
   factorization fill for nothing.

   [create] orders the mesh graph by minimum degree and reads the symbolic
   LU off the same elimination: the neighbours a node still has when it is
   eliminated are its U row and its L column (the pattern is symmetric and
   there is no pivoting — the systems are diagonally dominant).  [factor]
   eliminates row by row through a dense work vector over those index
   arrays; [substitute] sweeps forward and back in the permuted order.
   Everything is owned by [t], so a solver that reuses one stencil across
   iterations allocates nothing per solve.

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
  perm : int array;  (* perm.(i): the node eliminated i-th *)
  (* The elimination position of row perm.(i)'s west/south/north/east
     neighbour, or -1 where the stencil has no such entry. *)
  at_w : int array;
  at_s : int array;
  at_n : int array;
  at_e : int array;
  (* Strict L by rows and strict U by rows, in elimination positions;
     every index list is increasing. *)
  lptr : int array;
  lidx : int array;
  lval : Fvec.t;
  uptr : int array;
  uidx : int array;
  uval : Fvec.t;
  udiag : Fvec.t;
  work : Fvec.t;  (* the factor's row accumulator, the sweeps' permuted x *)
}

(* Whether the stencil holds A(i, i+d) for d = +-1: a neighbour inside
   i's mesh column.  When m = 1 every column is a single node, and the +-1
   diagonals coincide with the +-m ones, which carry the coupling. *)
let in_column ~n ~m i d =
  m > 1 && i + d >= 0 && i + d < n && if d > 0 then i mod m <> m - 1 else i mod m <> 0

let neighbours ~n ~m i =
  List.filter_map
    (fun (d, on) -> if on then Some (i + d) else None)
    [ (-m, i >= m); (-1, in_column ~n ~m i (-1)); (1, in_column ~n ~m i 1); (m, i + m < n) ]

(* Minimum-degree elimination of the mesh graph over explicit adjacency
   lists, each eliminated node's neighbours gaining one another (the fill),
   with the live nodes kept in per-degree buckets: doubly linked lists
   whose heads are the next picks, ties going to the lowest node id.
   Returns the elimination order and, for each step, the neighbours left
   at that step. *)
let minimum_degree ~n ~m =
  let adj = Array.init n (fun i -> Array.of_list (neighbours ~n ~m i)) in
  let deg = Array.map Array.length adj in
  let head = Array.make n (-1) and next = Array.make n (-1) and prev = Array.make n (-1) in
  let unlink v =
    if prev.(v) >= 0 then next.(prev.(v)) <- next.(v) else head.(deg.(v)) <- next.(v);
    if next.(v) >= 0 then prev.(next.(v)) <- prev.(v)
  in
  let push v =
    let d = deg.(v) in
    prev.(v) <- -1;
    next.(v) <- head.(d);
    if head.(d) >= 0 then prev.(head.(d)) <- v;
    head.(d) <- v
  in
  for v = n - 1 downto 0 do
    push v
  done;
  (* mark.(v) = u: v is already in u's list while u is being updated. *)
  let mark = Array.make n (-1) in
  let order = Array.make n 0 and left = Array.make n [||] in
  let min_deg = ref 0 in
  for step = 0 to n - 1 do
    while head.(!min_deg) < 0 do
      incr min_deg
    done;
    let p = head.(!min_deg) in
    unlink p;
    let nb = Array.sub adj.(p) 0 deg.(p) in
    order.(step) <- p;
    left.(step) <- nb;
    adj.(p) <- [||];
    for t = 0 to Array.length nb - 1 do
      let u = nb.(t) in
      unlink u;
      let a =
        let a = adj.(u) and need = deg.(u) + Array.length nb in
        if need <= Array.length a then a
        else begin
          let grown = Array.make (2 * need) (-1) in
          Array.blit a 0 grown 0 deg.(u);
          grown
        end
      in
      let d = ref 0 in
      mark.(u) <- u;
      for r = 0 to deg.(u) - 1 do
        let v = Array.unsafe_get a r in
        if v <> p then begin
          Array.unsafe_set a !d v;
          incr d;
          Array.unsafe_set mark v u
        end
      done;
      for t' = 0 to Array.length nb - 1 do
        let v = Array.unsafe_get nb t' in
        if Array.unsafe_get mark v <> u then begin
          Array.unsafe_set a !d v;
          incr d
        end
      done;
      adj.(u) <- a;
      deg.(u) <- !d;
      push u;
      if !d < !min_deg then min_deg := !d
    done
  done;
  (order, left)

(* CSR offsets from per-row counts. *)
let offsets counts =
  let ptr = Array.make (Array.length counts + 1) 0 in
  Array.iteri (fun i c -> ptr.(i + 1) <- ptr.(i) + c) counts;
  ptr

let create ~n ~m =
  if n <= 0 || m < 1 || m >= n then
    invalid_arg
      (Printf.sprintf "Stencil5.create: invalid shape n=%d m=%d (need n > 0 and 1 <= m < n)"
         n m);
  let perm, left = minimum_degree ~n ~m in
  let pos = Array.make n 0 in
  Array.iteri (fun i p -> pos.(p) <- i) perm;
  let at ok d = Array.map (fun p -> if ok p then pos.(p + d) else -1) perm in
  (* Step k's neighbours are U's row k and L's column k.  Filling L by
     rows with k upward, then U as L's transpose with rows upward, leaves
     every index list increasing. *)
  let lcount = Array.make n 0 and ucount = Array.map Array.length left in
  Array.iter (Array.iter (fun v -> lcount.(pos.(v)) <- lcount.(pos.(v)) + 1)) left;
  let lptr = offsets lcount and uptr = offsets ucount in
  let nnz = uptr.(n) in
  let lidx = Array.make nnz 0 and uidx = Array.make nnz 0 in
  let fill = Array.sub lptr 0 n in
  Array.iteri
    (fun k nb ->
      Array.iter
        (fun v ->
          let j = pos.(v) in
          lidx.(fill.(j)) <- k;
          fill.(j) <- fill.(j) + 1)
        nb)
    left;
  Array.blit uptr 0 fill 0 n;
  for i = 0 to n - 1 do
    for q = lptr.(i) to lptr.(i + 1) - 1 do
      let k = lidx.(q) in
      uidx.(fill.(k)) <- i;
      fill.(k) <- fill.(k) + 1
    done
  done;
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
    perm;
    at_w = at (fun p -> p >= m) (-m);
    at_s = at (fun p -> in_column ~n ~m p (-1)) (-1);
    at_n = at (fun p -> in_column ~n ~m p 1) 1;
    at_e = at (fun p -> p + m < n) m;
    lptr;
    lidx;
    lval = Fvec.create nnz;
    uptr;
    uidx;
    uval = Fvec.create nnz;
    udiag = Fvec.create n;
    work = Fvec.create n;
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

(* Row i's elimination, given its L pattern [lidx.(l0 .. l1-1)]: each L
   entry k, in increasing k, becomes the multiplier work.(k) / U(k,k) and
   subtracts its multiple of U's row k.  A zero multiplier (a contact
   row's) skips its update, and so does a NaN one, which [lval] still
   records for [substitute] to spread.  A function of its own, so that its
   few live values stay in registers. *)
let eliminate (work : Fvec.t) (lval : Fvec.t) (uval : Fvec.t) (udiag : Fvec.t) lidx uptr
    uidx l0 l1 =
  for q = l0 to l1 - 1 do
    let k = Array.unsafe_get lidx q in
    let f = BA1.unsafe_get work k /. BA1.unsafe_get udiag k in
    BA1.unsafe_set lval q f;
    if f < 0.0 || f > 0.0 then
      for r = Array.unsafe_get uptr k to Array.unsafe_get uptr (k + 1) - 1 do
        let j = Array.unsafe_get uidx r in
        BA1.unsafe_set work j (BA1.unsafe_get work j -. (f *. BA1.unsafe_get uval r))
      done
  done

(* Up-looking LU (IKJ): row i of A, permuted, is scattered into [work]
   over its pattern and eliminated; U on and right of the diagonal is
   then gathered out. *)
let lu ~who a =
  let { n; rows = { west; south; diag; north; east; _ }; perm; at_w; at_s; at_n; at_e;
        lptr; lidx; lval; uptr; uidx; uval; udiag; work; _ } = a in
  Obs.Metrics.incr factorizations;
  for i = 0 to n - 1 do
    let l0 = Array.unsafe_get lptr i and l1 = Array.unsafe_get lptr (i + 1) in
    let u0 = Array.unsafe_get uptr i and u1 = Array.unsafe_get uptr (i + 1) in
    for q = l0 to l1 - 1 do
      BA1.unsafe_set work (Array.unsafe_get lidx q) 0.0
    done;
    for r = u0 to u1 - 1 do
      BA1.unsafe_set work (Array.unsafe_get uidx r) 0.0
    done;
    let p = Array.unsafe_get perm i in
    BA1.unsafe_set work i (BA1.unsafe_get diag p);
    let j = Array.unsafe_get at_w i in
    if j >= 0 then BA1.unsafe_set work j (BA1.unsafe_get west p);
    let j = Array.unsafe_get at_s i in
    if j >= 0 then BA1.unsafe_set work j (BA1.unsafe_get south p);
    let j = Array.unsafe_get at_n i in
    if j >= 0 then BA1.unsafe_set work j (BA1.unsafe_get north p);
    let j = Array.unsafe_get at_e i in
    if j >= 0 then BA1.unsafe_set work j (BA1.unsafe_get east p);
    eliminate work lval uval udiag lidx uptr uidx l0 l1;
    let pivot = BA1.unsafe_get work i in
    if Float.abs pivot < 1e-300 then
      failwith (Printf.sprintf "Stencil5.%s: zero pivot at row %d" who p);
    BA1.unsafe_set udiag i pivot;
    for r = u0 to u1 - 1 do
      BA1.unsafe_set uval r (BA1.unsafe_get work (Array.unsafe_get uidx r))
    done
  done

let factor a = lu ~who:"factor" a

(* Permute dst into [work], solve L then U there, and permute back. *)
let substitute a ~dst =
  if Fvec.length dst <> a.n then invalid_arg "Stencil5.substitute: dst length mismatch";
  let { n; perm; lptr; lidx; lval; uptr; uidx; uval; udiag; work; _ } = a in
  for i = 0 to n - 1 do
    let s = ref (BA1.unsafe_get dst (Array.unsafe_get perm i)) in
    for q = Array.unsafe_get lptr i to Array.unsafe_get lptr (i + 1) - 1 do
      s := !s -. (BA1.unsafe_get lval q *. BA1.unsafe_get work (Array.unsafe_get lidx q))
    done;
    BA1.unsafe_set work i !s
  done;
  for i = n - 1 downto 0 do
    let s = ref (BA1.unsafe_get work i) in
    for r = Array.unsafe_get uptr i to Array.unsafe_get uptr (i + 1) - 1 do
      s := !s -. (BA1.unsafe_get uval r *. BA1.unsafe_get work (Array.unsafe_get uidx r))
    done;
    let x = !s /. BA1.unsafe_get udiag i in
    BA1.unsafe_set work i x;
    BA1.unsafe_set dst (Array.unsafe_get perm i) x
  done

let solve a ~dst =
  if Fvec.length dst <> a.n then invalid_arg "Stencil5.solve: dst length mismatch";
  lu ~who:"solve" a;
  Fvec.blit a.rows.rhs dst;
  substitute a ~dst
