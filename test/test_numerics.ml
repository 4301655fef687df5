open Subscale
module Vec = Numerics.Vec
module Root = Numerics.Root
module Minimize = Numerics.Minimize
module Interp = Numerics.Interp
module Integrate = Numerics.Integrate
module Grid = Numerics.Grid
module Stats = Numerics.Stats
module Fvec = Numerics.Fvec
module Stencil5 = Numerics.Stencil5
module Sparse_lu = Numerics.Sparse_lu

let u = Test_util.case
let prop = Test_util.prop

let gen_small_vec n = QCheck2.Gen.(array_size (pure n) (float_range (-10.0) 10.0))

(* Diagonally dominant random matrix and rhs: always uniquely solvable, and
   LU without pivoting is stable on it. *)
let gen_dd_system n =
  QCheck2.Gen.(
    let* a = array_size (pure (n * n)) (float_range (-1.0) 1.0) in
    let* b = gen_small_vec n in
    let m = Array.init n (fun i -> Array.init n (fun j -> a.((i * n) + j))) in
    Array.iteri
      (fun i row ->
        let off = Array.fold_left (fun acc v -> acc +. Float.abs v) 0.0 row in
        row.(i) <- off +. 1.0)
      m;
    pure (m, b))

let dot x y = Array.fold_left ( +. ) 0.0 (Array.map2 ( *. ) x y)
let norm2 x = sqrt (dot x x)

let vec_tests =
  [
    u "linspace endpoints and spacing" (fun () ->
        let v = Vec.linspace 1.0 3.0 5 in
        Test_util.check_float "first" 1.0 v.(0);
        Test_util.check_float "last" 3.0 v.(4);
        Test_util.check_float ~tol:1e-12 "step" 0.5 (v.(1) -. v.(0)));
    u "linspace rejects n < 2" (fun () ->
        Alcotest.check_raises "invalid" (Invalid_argument "Vec.linspace: need at least 2 points")
          (fun () -> ignore (Vec.linspace 0.0 1.0 1)));
    prop "triangle inequality" QCheck2.Gen.(pair (gen_small_vec 6) (gen_small_vec 6))
      (fun (x, y) -> norm2 (Vec.add x y) <= norm2 x +. norm2 y +. 1e-9);
    u "length mismatch raises" (fun () ->
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Vec.add: length mismatch (2 vs 3)") (fun () ->
            ignore (Vec.add [| 1.0; 2.0 |] [| 1.0; 2.0; 3.0 |])));
  ]

(* Dense oracles for the LU tests. *)
let identity n = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1.0 else 0.0))
let mat_vec a x = Array.map (fun row -> dot row x) a

(* Solve through the sparse LU on [a]'s full pattern, slots row-major. *)
let lu_solve a b =
  let n = Array.length b in
  let lu =
    Sparse_lu.create
      (Sparse_lu.analyse ~n ~slots:(n * n) ~row:(fun s -> s / n) ~col:(fun s -> s mod n))
  in
  Array.iteri
    (fun i row -> Array.iteri (fun j v -> Fvec.set (Sparse_lu.values lu) ((i * n) + j) v) row)
    a;
  Sparse_lu.factor lu;
  let x = Test_util.fvec_of_array b in
  Sparse_lu.substitute lu ~dst:x;
  Test_util.array_of_fvec x

let sparse_lu_tests =
  [
    u "identity solve returns rhs" (fun () ->
        let b = [| 1.0; -2.0; 3.5 |] in
        let x = lu_solve (identity 3) b in
        Test_util.check_float "diff" 0.0 (Vec.max_abs_diff x b));
    prop "LU solve inverts mat_vec (diag dominant 5x5)" (gen_dd_system 5)
      (fun (a, x_true) ->
        let b = mat_vec a x_true in
        let x = lu_solve a b in
        Vec.max_abs_diff x x_true < 1e-6);
    u "singular matrix raises" (fun () ->
        let a = [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
        match lu_solve a [| 1.0; 1.0 |] with
        | exception Sparse_lu.Zero_pivot 1 -> ()
        | _ -> Alcotest.fail "expected Zero_pivot 1");
  ]

let banded_tests =
  [
    u "set/get roundtrip and zero outside band" (fun () ->
        let a = Banded.create ~n:6 ~kl:1 ~ku:2 in
        Banded.set a 2 3 5.0;
        Test_util.check_float "in band" 5.0 (Banded.get a 2 3);
        Test_util.check_float "outside" 0.0 (Banded.get a 5 0));
    u "set outside band raises" (fun () ->
        let a = Banded.create ~n:6 ~kl:1 ~ku:1 in
        Alcotest.check_raises "outside" (Invalid_argument "Banded.set: (0, 3) outside band")
          (fun () -> Banded.set a 0 3 1.0));
    prop "banded solve matches dense (n = 10, kl = ku = 2)"
      QCheck2.Gen.(
        let* entries = array_size (pure 50) (float_range (-1.0) 1.0) in
        let* x_true = gen_small_vec 10 in
        pure (entries, x_true))
      (fun (entries, x_true) ->
        let n = 10 and kl = 2 and ku = 2 in
        let a = Banded.create ~n ~kl ~ku in
        let dense = Array.make_matrix n n 0.0 in
        let idx = ref 0 in
        for i = 0 to n - 1 do
          for j = Int.max 0 (i - kl) to Int.min (n - 1) (i + ku) do
            if i <> j then begin
              let v = entries.(!idx mod 50) in
              incr idx;
              Banded.set a i j v;
              dense.(i).(j) <- v
            end
          done;
          (* Diagonal dominance. *)
          let off = Array.fold_left (fun acc v -> acc +. Float.abs v) 0.0 dense.(i) in
          Banded.set a i i (off +. 1.0);
          dense.(i).(i) <- off +. 1.0
        done;
        let b = mat_vec dense x_true in
        let b2 = Banded.mat_vec a b in
        ignore b2;
        let x = Banded.solve_in_place a b in
        Vec.max_abs_diff x x_true < 1e-7);
    u "mat_vec matches dense" (fun () ->
        let a = Banded.create ~n:4 ~kl:1 ~ku:1 in
        Banded.set a 0 0 2.0;
        Banded.set a 0 1 (-1.0);
        Banded.set a 1 0 (-1.0);
        Banded.set a 1 1 2.0;
        Banded.set a 1 2 (-1.0);
        Banded.set a 2 1 (-1.0);
        Banded.set a 2 2 2.0;
        Banded.set a 2 3 (-1.0);
        Banded.set a 3 2 (-1.0);
        Banded.set a 3 3 2.0;
        let y = Banded.mat_vec a [| 1.0; 1.0; 1.0; 1.0 |] in
        Test_util.check_float "y0" 1.0 y.(0);
        Test_util.check_float "y1" 0.0 y.(1));
    u "clear zeroes the matrix" (fun () ->
        let a = Banded.create ~n:3 ~kl:1 ~ku:1 in
        Banded.set a 1 1 4.0;
        Banded.clear a;
        Test_util.check_float "cleared" 0.0 (Banded.get a 1 1));
    u "add_to accumulates" (fun () ->
        let a = Banded.create ~n:3 ~kl:1 ~ku:1 in
        Banded.add_to a 1 1 2.0;
        Banded.add_to a 1 1 3.0;
        Test_util.check_float "sum" 5.0 (Banded.get a 1 1));
  ]

let fvec_tests =
  [
    u "blit/copy/fill/map behave like their Array counterparts" (fun () ->
        Alcotest.(check bool) "create zero-fills" true
          (Fvec.for_all (Float.equal 0.0) (Fvec.create 4));
        let v = Fvec.init 5 float_of_int in
        let w = Fvec.create 5 in
        Fvec.blit v w;
        Test_util.check_float "blit" 4.0 (Fvec.get w 4);
        let c = Fvec.copy v in
        Fvec.fill v 7.0;
        Test_util.check_float "copy is detached" 2.0 (Fvec.get c 2);
        let d = Fvec.map (fun x -> 2.0 *. x) c in
        Test_util.check_float "map" 6.0 (Fvec.get d 3));
    prop "max_abs_diff is the inf-norm of the difference" (gen_small_vec 8)
      (fun a ->
        let v = Test_util.fvec_of_array a in
        let w = Fvec.map (fun x -> x +. 0.5) v in
        Float.abs (Fvec.max_abs_diff v w -. 0.5) < 1e-12);
    u "zero-length vectors are well-behaved everywhere" (fun () ->
        let z = Fvec.create 0 in
        Alcotest.(check int) "length" 0 (Fvec.length z);
        let z' = Fvec.create 0 in
        Fvec.blit z z';
        Fvec.fill z' 1.0;
        Alcotest.(check bool) "for_all vacuous" true (Fvec.for_all (fun _ -> false) z);
        Test_util.check_float "empty inf-norm" 0.0 (Fvec.max_abs_diff z z');
        Alcotest.(check int) "copy/map stay empty" 0
          (Fvec.length (Fvec.map (fun x -> x) (Fvec.copy z))));
    u "max_abs_diff names both lengths on a mismatch" (fun () ->
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Fvec.max_abs_diff: length mismatch (2 vs 3)") (fun () ->
            ignore (Fvec.max_abs_diff (Fvec.create 2) (Fvec.create 3))));
  ]

(* A random diagonally dominant system with the tensor-mesh stencil: +-m
   always, +-1 only inside a mesh column (so never when m = 1). *)
let gen_stencil_system ~n ~m:_ =
  QCheck2.Gen.(
    let* off = array_size (pure (4 * n)) (float_range (-1.0) 1.0) in
    let* x_true = gen_small_vec n in
    pure (off, x_true))

let on_stencil ~n ~m i d =
  let j = i + d in
  j >= 0 && j < n
  && (d = m || d = -m || (m > 1 && if d > 0 then i mod m <> m - 1 else i mod m <> 0))

(* The same system in both solvers; [off] holds each row's west, south,
   north and east entry, used where the stencil has one. *)
let assemble_pair ~n ~m off =
  let st = Stencil5.create ~n ~m in
  let rows = Stencil5.rows st in
  let bd = Banded.create ~n ~kl:m ~ku:m in
  for i = 0 to n - 1 do
    let entry slot d =
      let v = off.((4 * i) + slot) in
      if on_stencil ~n ~m i d && not (Float.equal v 0.0) then begin
        (* +-m before +-1: when m = 1 the two coincide, and +-m is the
           coupling. *)
        let diagonal =
          if d = -m then rows.Stencil5.west
          else if d = m then rows.Stencil5.east
          else if d < 0 then rows.Stencil5.south
          else rows.Stencil5.north
        in
        Fvec.set diagonal i v;
        Banded.set bd i (i + d) v;
        Float.abs v
      end
      else 0.0
    in
    let w = entry 0 (-m) in
    let s = entry 1 (-1) in
    let nn = entry 2 1 in
    let e = entry 3 m in
    let d = w +. s +. nn +. e +. 1.0 in
    Fvec.set rows.Stencil5.diag i d;
    Banded.set bd i i d
  done;
  (st, bd)

(* Both solvers on the same assembled system, rhs = A x_true computed once
   via the banded path so they start from identical data. *)
let solve_both ~n ~m off x_true =
  let st, bd = assemble_pair ~n ~m off in
  let rhs = Banded.mat_vec bd x_true in
  Array.iteri (fun i v -> Fvec.set (Stencil5.rows st).Stencil5.rhs i v) rhs;
  let dst = Fvec.create n in
  Stencil5.solve st ~dst;
  (Test_util.array_of_fvec dst, Banded.solve_in_place bd (Array.copy rhs))

(* The two solvers eliminate in different orders, so they agree to
   rounding, relative to the solution's size. *)
let close x y =
  let norm_inf = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 y in
  Vec.max_abs_diff x y <= 1e-12 *. norm_inf

let same_bits x y =
  Array.length x = Array.length y
  && Array.for_all2 (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) x y

(* Shapes with n not a multiple of m (except m = 1, the single-row mesh),
   and about one row in four an identity row — a contact row, as the TCAD
   solvers assemble it — whose multipliers are exactly 0.0. *)
let gen_stencil_shape =
  QCheck2.Gen.(
    let* m = int_range 1 6 in
    let* q = int_range 2 5 in
    let* r = if m = 1 then pure 0 else int_range 1 (m - 1) in
    let n = (m * q) + r in
    let* off = array_size (pure (4 * n)) (float_range (-1.0) 1.0) in
    let* contact = array_size (pure n) (int_bound 3) in
    let* x_true = gen_small_vec n in
    Array.iteri (fun i c -> if c = 0 then Array.fill off (4 * i) 4 0.0) contact;
    pure (n, m, off, x_true))

let stencil5_tests =
  [
    u "create validates the shape and names the offending dims" (fun () ->
        Alcotest.check_raises "m >= n"
          (Invalid_argument
             "Stencil5.create: invalid shape n=3 m=3 (need n > 0 and 1 <= m < n)")
          (fun () -> ignore (Stencil5.create ~n:3 ~m:3));
        (* The 1x1-mesh degenerate: a single node has no off-diagonal band
           to put the stencil on, so it must be rejected — with both dims
           in the message, not a bare constructor name. *)
        Alcotest.check_raises "n = m = 1"
          (Invalid_argument
             "Stencil5.create: invalid shape n=1 m=1 (need n > 0 and 1 <= m < n)")
          (fun () -> ignore (Stencil5.create ~n:1 ~m:1)));
    u "minimal valid shape n=2 m=1 solves exactly" (fun () ->
        (* The smallest legal system: two one-node mesh columns, coupled
           through the +-m diagonals (the +-1 ones would cross a column).
           [[2,-1],[-1,2]] x = [0,3] has the exact solution x = [1,2]. *)
        let a = Stencil5.create ~n:2 ~m:1 in
        Stencil5.set_row a 0 ~west:0.0 ~south:0.0 ~diag:2.0 ~north:0.0 ~east:(-1.0)
          ~rhs:0.0;
        Stencil5.set_row a 1 ~west:(-1.0) ~south:0.0 ~diag:2.0 ~north:0.0 ~east:0.0
          ~rhs:3.0;
        let dst = Fvec.create 2 in
        Stencil5.solve a ~dst;
        Test_util.check_float "x0" 1.0 (Fvec.get dst 0);
        Test_util.check_float "x1" 2.0 (Fvec.get dst 1));
    prop "m=1 (single-row mesh) solve matches Banded" ~count:30
      (gen_stencil_system ~n:12 ~m:1)
      (fun (off, x_true) ->
        (* A 1-D mesh: the +-m diagonals are the only coupling, and the
           system is tridiagonal. *)
        let x, x_banded = solve_both ~n:12 ~m:1 off x_true in
        close x x_banded);
    prop "solve matches Banded on random tensor-mesh systems, contact rows included"
      ~count:60 gen_stencil_shape
      (fun (n, m, off, x_true) ->
        let x, x_banded = solve_both ~n ~m off x_true in
        close x x_banded && Vec.max_abs_diff x x_true < 1e-7);
    prop "two solves of one system give the same bits" ~count:60
      gen_stencil_shape
      (fun (n, m, off, x_true) ->
        let x1, _ = solve_both ~n ~m off x_true and x2, _ = solve_both ~n ~m off x_true in
        same_bits x1 x2);
    u "set_row writes all five diagonals and the rhs" (fun () ->
        let a = Stencil5.create ~n:12 ~m:3 in
        Stencil5.set_row a 4 ~west:(-1.0) ~south:(-2.0) ~diag:7.0 ~north:(-3.0)
          ~east:(-0.5) ~rhs:4.0;
        let r = Stencil5.rows a in
        Test_util.check_float "west" (-1.0) (Fvec.get r.Stencil5.west 4);
        Test_util.check_float "south" (-2.0) (Fvec.get r.Stencil5.south 4);
        Test_util.check_float "diag" 7.0 (Fvec.get r.Stencil5.diag 4);
        Test_util.check_float "north" (-3.0) (Fvec.get r.Stencil5.north 4);
        Test_util.check_float "east" (-0.5) (Fvec.get r.Stencil5.east 4);
        Test_util.check_float "rhs" 4.0 (Fvec.get r.Stencil5.rhs 4));
    u "solve reuses the workspace across calls" (fun () ->
        (* Two different systems through one stencil: the second solve must
           be unaffected by the first one's factorization leftovers. *)
        let n = 15 and m = 3 in
        let a = Stencil5.create ~n ~m in
        for i = 0 to n - 1 do
          Stencil5.set_row a i ~west:(-1.0) ~south:(-1.0) ~diag:5.0 ~north:(-1.0)
            ~east:(-1.0) ~rhs:1.0
        done;
        let d1 = Fvec.create n in
        Stencil5.solve a ~dst:d1;
        let first = Test_util.array_of_fvec d1 in
        for i = 0 to n - 1 do
          Stencil5.set_row a i ~west:(-1.0) ~south:(-1.0) ~diag:5.0 ~north:(-1.0)
            ~east:(-1.0) ~rhs:1.0
        done;
        let d2 = Fvec.create n in
        Stencil5.solve a ~dst:d2;
        Alcotest.(check (array (float 0.0))) "identical" first (Test_util.array_of_fvec d2));
    u "zero pivot fails loudly" (fun () ->
        let a = Stencil5.create ~n:6 ~m:2 in
        for i = 0 to 5 do
          Stencil5.set_row a i ~west:0.0 ~south:0.0 ~diag:0.0 ~north:0.0 ~east:0.0
            ~rhs:1.0
        done;
        Alcotest.check_raises "zero pivot"
          (Failure "Stencil5.solve: zero pivot at row 0") (fun () ->
            Stencil5.solve a ~dst:(Fvec.create 6)));
    prop "solve is factor then substitute, bit for bit, and substitute repeats"
      ~count:60
      gen_stencil_shape
      (fun (n, m, off, x_true) ->
        let st, bd = assemble_pair ~n ~m off in
        let rows = Stencil5.rows st in
        Array.iteri (fun i v -> Fvec.set rows.Stencil5.rhs i v) (Banded.mat_vec bd x_true);
        let solved = Fvec.create n in
        Stencil5.solve st ~dst:solved;
        Stencil5.factor st;
        let once = Fvec.copy rows.Stencil5.rhs in
        Stencil5.substitute st ~dst:once;
        (* A reassembly after the factor does not reach the factorization. *)
        Fvec.fill rows.Stencil5.diag 1.0;
        let twice = Fvec.copy rows.Stencil5.rhs in
        Stencil5.substitute st ~dst:twice;
        same_bits (Test_util.array_of_fvec solved) (Test_util.array_of_fvec once)
        && same_bits (Test_util.array_of_fvec once) (Test_util.array_of_fvec twice));
  ]

let root_tests =
  [
    u "bisect finds pi/2 as root of cos" (fun () ->
        Test_util.check_rel "root" ~rel:1e-8 (Float.pi /. 2.0) (Root.bisect cos 1.0 2.0));
    u "brent finds pi/2 as root of cos" (fun () ->
        Test_util.check_rel "root" ~rel:1e-8 (Float.pi /. 2.0) (Root.brent cos 1.0 2.0));
    u "bisect requires a sign change" (fun () ->
        Alcotest.check_raises "no change"
          (Invalid_argument "Root.bisect: no sign change on [a, b]") (fun () ->
            ignore (Root.bisect (fun x -> (x *. x) +. 1.0) 0.0 1.0)));
    prop "brent solves x^3 = c" (QCheck2.Gen.float_range 0.5 50.0) (fun c ->
        let r = Root.brent (fun x -> (x ** 3.0) -. c) 0.0 4.0 in
        Float.abs ((r ** 3.0) -. c) < 1e-6);
    u "bisect raises No_convergence when the budget runs out" (fun () ->
        match Root.bisect ~max_iter:3 cos 1.0 2.0 with
        | exception Root.No_convergence { method_; iterations; a; b; _ } ->
          Alcotest.(check string) "method" "bisect" method_;
          Alcotest.(check int) "iterations" 3 iterations;
          Alcotest.(check bool) "bracket still straddles" true (a < Float.pi /. 2.0 && Float.pi /. 2.0 < b)
        | r -> Alcotest.failf "expected No_convergence, got %g" r);
    u "brent raises No_convergence when the budget runs out" (fun () ->
        match Root.brent ~max_iter:2 cos 1.0 2.0 with
        | exception Root.No_convergence { method_; _ } ->
          Alcotest.(check string) "method" "brent" method_
        | r -> Alcotest.failf "expected No_convergence, got %g" r);
  ]

let minimize_tests =
  [
    prop "golden section finds a quadratic vertex" (QCheck2.Gen.float_range (-3.0) 3.0)
      (fun v ->
        let x, _ = Minimize.golden_section (fun x -> (x -. v) ** 2.0) (-5.0) 5.0 in
        Float.abs (x -. v) < 1e-5);
    u "grid_then_golden escapes a local minimum" (fun () ->
        (* f has a shallow local min near x = -1.5 and global at x = 2. *)
        let f x = Float.min (((x +. 1.5) ** 2.0) +. 0.5) ((x -. 2.0) ** 2.0) in
        let x, _ = Minimize.grid_then_golden ~samples:40 f (-4.0) 4.0 in
        Test_util.check_rel "global" ~rel:1e-3 2.0 x);
  ]

(* A strictly increasing table of 2..60 points and a sorted grid that
   holds both table ends, points below and above the table, some of its
   abscissae exactly, and random points in between. *)
let gen_table_and_grid =
  QCheck2.Gen.(
    let* n = int_range 2 60 in
    let* x0 = float_range (-5.0) 5.0 in
    let* gaps = array_size (pure (n - 1)) (float_range 1e-6 2.0) in
    let* ys = array_size (pure n) (float_range (-10.0) 10.0) in
    let xs = Array.make n x0 in
    for i = 1 to n - 1 do
      xs.(i) <- xs.(i - 1) +. gaps.(i - 1)
    done;
    let lo = xs.(0) and hi = xs.(n - 1) in
    let* inner = array_size (int_range 0 40) (float_range (lo -. 1.0) (hi +. 1.0)) in
    let* picks = array_size (int_range 0 10) (int_range 0 (n - 1)) in
    let grid =
      Array.concat
        [ inner; Array.map (fun i -> xs.(i)) picks; [| lo; hi; lo -. 3.0; hi +. 3.0 |] ]
    in
    Array.sort Float.compare grid;
    pure (xs, ys, grid))

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun p q -> Int64.equal (Int64.bits_of_float p) (Int64.bits_of_float q)) a b

(* [Interp.resample]'s sampler over a materialized table. *)
let table xs ys i (xy : float array) =
  xy.(0) <- xs.(i);
  xy.(1) <- ys.(i)

(* [Interp.resample] into a fresh array. *)
let resampled ~n ~sample grid =
  let dst = Array.make (Array.length grid) 0.0 in
  Interp.resample ~n ~sample grid ~dst;
  dst

let interp_tests =
  [
    u "linear interpolation hits nodes and midpoints" (fun () ->
        let xs = [| 0.0; 1.0; 2.0 |] and ys = [| 0.0; 10.0; 0.0 |] in
        Test_util.check_float "node" 10.0 (Interp.linear xs ys 1.0);
        Test_util.check_float "mid" 5.0 (Interp.linear xs ys 0.5));
    u "linear clamps outside the table" (fun () ->
        let xs = [| 0.0; 1.0 |] and ys = [| 3.0; 4.0 |] in
        Test_util.check_float "below" 3.0 (Interp.linear xs ys (-1.0));
        Test_util.check_float "above" 4.0 (Interp.linear xs ys 2.0));
    u "non-increasing abscissae raise" (fun () ->
        Alcotest.check_raises "order"
          (Invalid_argument "Interp.linear: abscissae must be strictly increasing") (fun () ->
            ignore (Interp.linear [| 0.0; 0.0 |] [| 1.0; 2.0 |] 0.5)));
    u "crossings finds both edges of a pulse" (fun () ->
        let xs = [| 0.0; 1.0; 2.0; 3.0 |] and ys = [| 0.0; 1.0; 1.0; 0.0 |] in
        match Interp.crossings xs ys 0.5 with
        | [ a; b ] ->
          Test_util.check_float "rise" 0.5 a;
          Test_util.check_float "fall" 2.5 b
        | other -> Alcotest.failf "expected 2 crossings, got %d" (List.length other));
    u "search brackets its argument" (fun () ->
        let xs = [| 0.0; 1.0; 4.0; 9.0 |] in
        Alcotest.(check int) "bracket" 1 (Interp.search xs 2.0));
    prop "resample is Array.map linear, bit for bit" ~count:300 gen_table_and_grid
      (fun (xs, ys, grid) ->
        same_bits
          (Array.map (Interp.linear xs ys) grid)
          (resampled ~n:(Array.length xs) ~sample:(table xs ys) grid));
    u "resample reads each table index once, in order" (fun () ->
        let seen = ref [] in
        let sample i xy =
          seen := i :: !seen;
          xy.(0) <- float_of_int i;
          xy.(1) <- float_of_int i
        in
        ignore (resampled ~n:6 ~sample [| -1.0; 0.5; 2.5; 2.5 |]);
        Alcotest.(check (list int)) "indices" [ 0; 1; 2; 3; 4; 5 ] (List.rev !seen));
    u "resample rejects an unsorted table, even past the grid" (fun () ->
        let xs = [| 0.0; 1.0; 2.0; 2.0 |] in
        Alcotest.check_raises "order"
          (Invalid_argument "Interp.resample: abscissae must be strictly increasing")
          (fun () ->
            ignore (resampled ~n:4 ~sample:(table xs xs) [| 0.5 |]));
        Alcotest.check_raises "grid" (Invalid_argument "Interp.resample: grid must be non-decreasing")
          (fun () ->
            let xs = [| 0.0; 1.0 |] in
            ignore (resampled ~n:2 ~sample:(table xs xs) [| 0.5; 0.25 |])));
    u "linear on an 804-point table does not box per element" (fun () ->
        (* Measured: 4 minor words per call (the boxed result).  Inferred at
           'a array, the ordering scan boxed every element it compared
           (3239 words per call on this table). *)
        let xs = Vec.linspace 0.0 1.0 804 and ys = Array.init 804 float_of_int in
        let calls = 1000 in
        let sink = ref 0.0 in
        let before = Gc.minor_words () in
        for i = 0 to calls - 1 do
          sink := !sink +. Interp.linear xs ys (float_of_int i /. float_of_int calls)
        done;
        let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
        Test_util.check_in_range "minor words per call" ~lo:0.0 ~hi:32.0 per_call;
        Alcotest.(check bool) "result used" true (Float.is_finite !sink));
  ]

let integrate_tests =
  [
    u "trapezoid is exact on a line" (fun () ->
        let xs = Vec.linspace 0.0 2.0 5 in
        let ys = Array.map (fun x -> (3.0 *. x) +. 1.0) xs in
        Test_util.check_rel "area" ~rel:1e-12 8.0 (Integrate.trapezoid_samples xs ys));
  ]

let grid_tests =
  [
    u "geometric grid grows by the ratio" (fun () ->
        let g = Grid.geometric 0.0 10.0 ~h0:1.0 ~ratio:1.5 in
        Test_util.check_rel "second step" ~rel:1e-9 1.5 ((g.(2) -. g.(1)) /. (g.(1) -. g.(0))));
    u "refined grid covers the interval with fine spacing at centres" (fun () ->
        let g = Grid.refined_around 0.0 100e-9 ~centers:[| 50e-9 |] ~h_min:1e-9 ~h_max:10e-9 in
        Test_util.check_float "start" 0.0 g.(0);
        Test_util.check_float "end" 100e-9 g.(Array.length g - 1);
        let i = ref 0 in
        Array.iteri (fun k x -> if Float.abs (x -. 50e-9) < Float.abs (g.(!i) -. 50e-9) then i := k) g;
        let h_local = g.(!i + 1) -. g.(!i) in
        Alcotest.(check bool) "fine at centre" true (h_local < 3e-9));
    u "spacings of a refined grid are bounded" (fun () ->
        let g = Grid.refined_around 0.0 1.0 ~centers:[| 0.3 |] ~h_min:0.01 ~h_max:0.2 in
        Array.iter
          (fun h -> Test_util.check_in_range "h" ~lo:0.005 ~hi:0.30 h)
          (Grid.spacings g));
    (* The lines name TCAD meshes in every structure key, so the two-pass
       walk must give the list-built walk's floats bit for bit. *)
    prop "refined grid is the list-built walk's, bit for bit" ~count:300
      QCheck2.Gen.(
        quad (float_range 1e-9 1.0) (list_size (1 -- 4) (float_range (-0.2) 1.2))
          (float_range 0.002 0.05) (float_range 1.0 8.0))
      (fun (b, centers, h_min_frac, h_max_ratio) ->
        let h_min = h_min_frac *. b and centers = List.map (fun c -> c *. b) centers in
        let h_max = h_min *. h_max_ratio in
        let reference =
          let target x =
            let d =
              List.fold_left (fun acc c -> Float.min acc (Float.abs (x -. c))) infinity centers
            in
            Float.min h_max (h_min +. (0.35 *. d))
          in
          let rec collect x acc =
            let h = target x in
            let x' = x +. h in
            if x' >= b -. (0.3 *. h) then List.rev (b :: acc) else collect x' (x' :: acc)
          in
          Array.of_list (collect 0.0 [ 0.0 ])
        in
        let g = Grid.refined_around 0.0 b ~centers:(Array.of_list centers) ~h_min ~h_max in
        Array.length g = Array.length reference
        && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) g
             reference);
  ]

let stats_tests =
  [
    u "mean and stddev of a known set" (fun () ->
        let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
        Test_util.check_float "mean" 5.0 (Stats.mean xs);
        Test_util.check_rel "stddev" ~rel:1e-9 2.138089935 (Stats.stddev xs));
    prop "linear regression recovers a noiseless line"
      QCheck2.Gen.(pair (float_range (-5.0) 5.0) (float_range (-5.0) 5.0))
      (fun (m, c) ->
        let xs = Vec.linspace 0.0 10.0 20 in
        let ys = Array.map (fun x -> (m *. x) +. c) xs in
        let m', c' = Stats.linear_regression xs ys in
        Float.abs (m -. m') < 1e-9 && Float.abs (c -. c') < 1e-8);
    u "geometric mean ratio of a geometric series" (fun () ->
        Test_util.check_rel "ratio" ~rel:1e-12 0.8
          (Test_util.geometric_mean_ratio [| 1.0; 0.8; 0.64; 0.512 |]));
    u "min and max" (fun () ->
        let xs = [| 3.0; -1.0; 4.0 |] in
        Test_util.check_float "min" (-1.0) (Stats.minimum xs);
        Test_util.check_float "max" 4.0 (Stats.maximum xs));
    prop "sort is Array.sort compare, bit for bit" ~count:500
      QCheck2.Gen.(
        array_size (int_range 0 80)
          (oneof
             [ float_range (-3.0) 3.0;
               oneofl
                 [ 0.0; -0.0; 1.0; -1.0; Float.nan; Int64.float_of_bits 0x7ff0000000000001L;
                   Float.infinity; Float.neg_infinity ] ]))
      (fun xs ->
        let reference = Array.copy xs and sorted = Array.copy xs in
        Array.sort compare reference;
        Stats.sort sorted;
        Array.for_all2
          (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
          reference sorted);
    prop "mean and stddev are their left folds, bit for bit" ~count:300
      QCheck2.Gen.(array_size (int_range 1 60) (float_range (-1e3) 1e3))
      (fun xs ->
        let n = float_of_int (Array.length xs) in
        let mean = Array.fold_left ( +. ) 0.0 xs /. n in
        let stddev =
          if Array.length xs < 2 then 0.0
          else sqrt (Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs /. (n -. 1.0))
        in
        let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
        same mean (Stats.mean xs) && same stddev (Stats.stddev xs));
    u "sorting 500 samples boxes no element" (fun () ->
        (* Measured: 1,352 minor words, the boxed key each sift carries;
           Array.sort compare made 30,191 here. *)
        let xs = Array.init 500 (fun i -> sin (float_of_int i)) in
        let minor0 = Gc.minor_words () in
        Stats.sort xs;
        Test_util.check_in_range "minor words" ~lo:0.0 ~hi:(1.05 *. 1_352.0)
          (Gc.minor_words () -. minor0));
  ]

let suite =
  [
    ("numerics.vec", vec_tests);
    ("numerics.sparse_lu", sparse_lu_tests);
    ("numerics.banded", banded_tests);
    ("numerics.fvec", fvec_tests);
    ("numerics.stencil5", stencil5_tests);
    ("numerics.root", root_tests);
    ("numerics.minimize", minimize_tests);
    ("numerics.interp", interp_tests);
    ("numerics.integrate", integrate_tests);
    ("numerics.grid", grid_tests);
    ("numerics.stats", stats_tests);
  ]
