open Subscale
module Vec = Numerics.Vec
module Matrix = Numerics.Matrix
module Root = Numerics.Root
module Minimize = Numerics.Minimize
module Interp = Numerics.Interp
module Integrate = Numerics.Integrate
module Grid = Numerics.Grid
module Stats = Numerics.Stats
module Fvec = Numerics.Fvec
module Stencil5 = Numerics.Stencil5

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

let norm2 x = sqrt (Vec.dot x x)

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
    u "logspace is geometric" (fun () ->
        let v = Vec.logspace 1.0 100.0 3 in
        Test_util.check_rel "mid" ~rel:1e-12 10.0 v.(1));
    prop "dot is symmetric" QCheck2.Gen.(pair (gen_small_vec 6) (gen_small_vec 6))
      (fun (x, y) -> Float.abs (Vec.dot x y -. Vec.dot y x) < 1e-9);
    prop "Cauchy-Schwarz" QCheck2.Gen.(pair (gen_small_vec 6) (gen_small_vec 6))
      (fun (x, y) ->
        Float.abs (Vec.dot x y) <= (norm2 x *. norm2 y) +. 1e-9);
    prop "triangle inequality" QCheck2.Gen.(pair (gen_small_vec 6) (gen_small_vec 6))
      (fun (x, y) -> norm2 (Vec.add x y) <= norm2 x +. norm2 y +. 1e-9);
    prop "axpy matches add/scale" (gen_small_vec 5) (fun x ->
        let y = Vec.create 5 1.0 in
        Vec.axpy 2.0 x y;
        let expected = Array.map (fun v -> (2.0 *. v) +. 1.0) x in
        Vec.max_abs_diff y expected < 1e-12);
    u "norm_inf of signed values" (fun () ->
        Test_util.check_float "inf" 7.0 (Vec.norm_inf [| 3.0; -7.0; 2.0 |]));
    u "length mismatch raises" (fun () ->
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Vec.dot: length mismatch (2 vs 3)") (fun () ->
            ignore (Vec.dot [| 1.0; 2.0 |] [| 1.0; 2.0; 3.0 |])));
  ]

(* Factor [a] in place, then solve into a fresh vector. *)
let lu_solve a b =
  let n = Array.length b in
  let perm = Array.make n 0 and x = Array.make n 0.0 in
  Matrix.lu_factor_in_place a perm;
  Matrix.lu_solve_into a perm b x;
  x

let matrix_tests =
  [
    u "identity solve returns rhs" (fun () ->
        let b = [| 1.0; -2.0; 3.5 |] in
        let x = lu_solve (Matrix.identity 3) b in
        Test_util.check_float "diff" 0.0 (Vec.max_abs_diff x b));
    prop "LU solve inverts mat_vec (diag dominant 5x5)" (gen_dd_system 5)
      (fun (a, x_true) ->
        let b = Matrix.mat_vec a x_true in
        let x = lu_solve a b in
        Vec.max_abs_diff x x_true < 1e-6);
    u "pivoting handles zero leading entry" (fun () ->
        let a = [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
        let x = lu_solve a [| 2.0; 3.0 |] in
        Test_util.check_float "x0" 3.0 x.(0);
        Test_util.check_float "x1" 2.0 x.(1));
    u "singular matrix raises" (fun () ->
        let a = [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
        match Matrix.lu_factor_in_place a (Array.make 2 0) with
        | exception Matrix.Singular _ -> ()
        | _ -> Alcotest.fail "expected Singular");
    u "transpose is an involution" (fun () ->
        let a = [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
        let att = Matrix.transpose (Matrix.transpose a) in
        Array.iteri
          (fun i row -> Array.iteri (fun j v -> Test_util.check_float "cell" a.(i).(j) v) row)
          att);
    u "mat_mul against hand result" (fun () ->
        let a = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
        let b = [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
        let c = Matrix.mat_mul a b in
        Test_util.check_float "c00" 2.0 c.(0).(0);
        Test_util.check_float "c11" 3.0 c.(1).(1));
    u "factor in place leaves L U of the permuted input" (fun () ->
        let a = [| [| 1.0; 2.0; 0.0 |]; [| 4.0; 1.0; 3.0 |]; [| 2.0; 5.0; 1.0 |] |] in
        let lu = Matrix.copy a and perm = Array.make 3 0 in
        Matrix.lu_factor_in_place lu perm;
        Array.iteri
          (fun i p ->
            Array.iteri
              (fun j expected ->
                let s = ref 0.0 in
                for k = 0 to Int.min i j do
                  let l = if k = i then 1.0 else lu.(i).(k) in
                  s := !s +. (l *. lu.(k).(j))
                done;
                Test_util.check_float ~tol:1e-12 "(L U)_ij" expected !s)
              a.(p))
          perm);
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
        let dense = Matrix.create n n in
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
        let b = Matrix.mat_vec dense x_true in
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
    u "create zero-fills and of_array/to_array round trips" (fun () ->
        let z = Fvec.create 4 in
        Alcotest.(check bool) "zeroed" true (Fvec.for_all (Float.equal 0.0) z);
        let v = Fvec.of_array [| 1.0; -2.5; 3.0 |] in
        Alcotest.(check (array (float 0.0))) "round trip" [| 1.0; -2.5; 3.0 |]
          (Fvec.to_array v));
    u "blit/copy/fill/map behave like their Array counterparts" (fun () ->
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
        let v = Fvec.of_array a in
        let w = Fvec.map (fun x -> x +. 0.5) v in
        Float.abs (Fvec.max_abs_diff v w -. 0.5) < 1e-12);
    u "zero-length vectors are well-behaved everywhere" (fun () ->
        let z = Fvec.create 0 in
        Alcotest.(check int) "length" 0 (Fvec.length z);
        Alcotest.(check (array (float 0.0))) "to_array" [||] (Fvec.to_array z);
        let z' = Fvec.of_array [||] in
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

(* A random diagonally dominant pentadiagonal system with the +-1/+-m
   stencil structure, assembled into both solvers. *)
let gen_stencil_system ~n ~m:_ =
  QCheck2.Gen.(
    let* off = array_size (pure (4 * n)) (float_range (-1.0) 1.0) in
    let* x_true = gen_small_vec n in
    pure (off, x_true))

let assemble_pair ~n ~m off =
  let st = Stencil5.create ~n ~m in
  let bd = Banded.create ~n ~kl:m ~ku:m in
  for i = 0 to n - 1 do
    let entry j v =
      if j >= 0 && j < n && not (Float.equal v 0.0) then begin
        Stencil5.set st i j v;
        Banded.set bd i j v
      end;
      if j >= 0 && j < n then Float.abs v else 0.0
    in
    let w = entry (i - m) off.((4 * i) + 0) in
    let s = entry (i - 1) off.((4 * i) + 1) in
    let nn = entry (i + 1) off.((4 * i) + 2) in
    let e = entry (i + m) off.((4 * i) + 3) in
    let d = w +. s +. nn +. e +. 1.0 in
    Stencil5.set st i i d;
    Banded.set bd i i d
  done;
  (st, bd)

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
        (* The smallest legal system: 2x2 with the +-1 band only (the +-m
           band coincides with it).  [[2,-1],[-1,2]] x = [0,3] has the
           exact solution x = [1,2]. *)
        let a = Stencil5.create ~n:2 ~m:1 in
        Stencil5.set_row a 0 ~west:0.0 ~south:0.0 ~diag:2.0 ~north:(-1.0) ~east:0.0
          ~rhs:0.0;
        Stencil5.set_row a 1 ~west:0.0 ~south:(-1.0) ~diag:2.0 ~north:0.0 ~east:0.0
          ~rhs:3.0;
        let dst = Fvec.create 2 in
        Stencil5.solve a ~dst;
        Test_util.check_float "x0" 1.0 (Fvec.get dst 0);
        Test_util.check_float "x1" 2.0 (Fvec.get dst 1));
    prop "m=1 (single-row mesh) solve matches Banded" ~count:30
      (gen_stencil_system ~n:12 ~m:1)
      (fun (off, x_true) ->
        (* A 1-D mesh collapses the far diagonal onto the near one: the
           stencil degenerates to tridiagonal-with-doubled-neighbors and
           must still agree with the dense banded reference. *)
        let n = 12 and m = 1 in
        let st, bd = assemble_pair ~n ~m off in
        let rhs = Banded.mat_vec bd x_true in
        Array.iteri (fun i v -> Fvec.set (Stencil5.rhs st) i v) rhs;
        let dst = Fvec.create n in
        Stencil5.solve st ~dst;
        Vec.max_abs_diff (Fvec.to_array dst) (Banded.solve_in_place bd (Array.copy rhs))
        < 1e-9);
    u "set rejects off-stencil entries, get reads zero off the band" (fun () ->
        let a = Stencil5.create ~n:10 ~m:3 in
        Test_util.check_float "off-stencil zero" 0.0 (Stencil5.get a 0 2);
        Alcotest.check_raises "set off-stencil"
          (Invalid_argument "Stencil5.set: (0, 2) off the stencil") (fun () ->
            Stencil5.set a 0 2 1.0));
    prop "solve matches Banded on random pentadiagonal dominant systems"
      ~count:50
      (gen_stencil_system ~n:24 ~m:5)
      (fun (off, x_true) ->
        let n = 24 and m = 5 in
        let st, bd = assemble_pair ~n ~m off in
        (* rhs = A x_true, computed once via the banded path so the two
           solvers start from identical data. *)
        let rhs = Banded.mat_vec bd x_true in
        Array.iteri (fun i v -> Fvec.set (Stencil5.rhs st) i v) rhs;
        let dst = Fvec.create n in
        Stencil5.solve st ~dst;
        let x_banded = Banded.solve_in_place bd (Array.copy rhs) in
        Vec.max_abs_diff (Fvec.to_array dst) x_banded < 1e-9
        && Vec.max_abs_diff (Fvec.to_array dst) x_true < 1e-7);
    prop "mat_vec matches Banded mat_vec" ~count:50
      (gen_stencil_system ~n:18 ~m:4)
      (fun (off, x) ->
        let n = 18 and m = 4 in
        let st, bd = assemble_pair ~n ~m off in
        let y = Fvec.create n in
        Stencil5.mat_vec st (Fvec.of_array x) y;
        Vec.max_abs_diff (Fvec.to_array y) (Banded.mat_vec bd x) < 1e-12);
    u "set_row writes all five diagonals and the rhs" (fun () ->
        let a = Stencil5.create ~n:12 ~m:3 in
        Stencil5.set_row a 5 ~west:(-1.0) ~south:(-2.0) ~diag:7.0 ~north:(-3.0)
          ~east:(-0.5) ~rhs:4.0;
        Test_util.check_float "west" (-1.0) (Stencil5.get a 5 2);
        Test_util.check_float "south" (-2.0) (Stencil5.get a 5 4);
        Test_util.check_float "diag" 7.0 (Stencil5.get a 5 5);
        Test_util.check_float "north" (-3.0) (Stencil5.get a 5 6);
        Test_util.check_float "east" (-0.5) (Stencil5.get a 5 8);
        Test_util.check_float "rhs" 4.0 (Fvec.get (Stencil5.rhs a) 5));
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
        let first = Fvec.to_array d1 in
        for i = 0 to n - 1 do
          Stencil5.set_row a i ~west:(-1.0) ~south:(-1.0) ~diag:5.0 ~north:(-1.0)
            ~east:(-1.0) ~rhs:1.0
        done;
        let d2 = Fvec.create n in
        Stencil5.solve a ~dst:d2;
        Alcotest.(check (array (float 0.0))) "identical" first (Fvec.to_array d2));
    u "zero pivot fails loudly" (fun () ->
        let a = Stencil5.create ~n:6 ~m:2 in
        for i = 0 to 5 do
          Stencil5.set_row a i ~west:0.0 ~south:0.0 ~diag:0.0 ~north:0.0 ~east:0.0
            ~rhs:1.0
        done;
        Alcotest.check_raises "zero pivot"
          (Failure "Stencil5.solve: zero pivot at row 0") (fun () ->
            Stencil5.solve a ~dst:(Fvec.create 6)));
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
    u "newton computes sqrt 2" (fun () ->
        let r = Root.newton ~f:(fun x -> (x *. x) -. 2.0) ~df:(fun x -> 2.0 *. x) 1.0 in
        Test_util.check_rel "sqrt2" ~rel:1e-10 (sqrt 2.0) r);
    u "newton raises on zero derivative" (fun () ->
        match Root.newton ~f:(fun _ -> 1.0) ~df:(fun _ -> 0.0) 0.0 with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "expected failure");
    u "find_bracket expands to capture a root" (fun () ->
        match Root.find_bracket (fun x -> x -. 10.0) 0.0 1.0 with
        | Some (a, b) -> Alcotest.(check bool) "bracket" true (a <= 10.0 && 10.0 <= b)
        | None -> Alcotest.fail "expected a bracket");
    u "find_bracket gives up on rootless functions" (fun () ->
        Alcotest.(check bool) "none" true
          (Root.find_bracket ~max_iter:10 (fun x -> (x *. x) +. 1.0) 0.0 1.0 = None));
    u "bisect raises No_convergence when the budget runs out" (fun () ->
        match Root.bisect ~max_iter:3 cos 1.0 2.0 with
        | exception Root.No_convergence { method_; iterations; a; b; _ } ->
          Alcotest.(check string) "method" "bisect" method_;
          Alcotest.(check int) "iterations" 3 iterations;
          Alcotest.(check bool) "bracket still straddles" true (a < Float.pi /. 2.0 && Float.pi /. 2.0 < b)
        | r -> Alcotest.failf "expected No_convergence, got %g" r);
    u "bisect on_fail:`Accept returns the best iterate" (fun () ->
        let r = Root.bisect ~max_iter:3 ~on_fail:`Accept cos 1.0 2.0 in
        Alcotest.(check bool) "coarse midpoint" true (Float.abs (r -. (Float.pi /. 2.0)) < 0.2));
    u "brent raises No_convergence when the budget runs out" (fun () ->
        match Root.brent ~max_iter:2 cos 1.0 2.0 with
        | exception Root.No_convergence { method_; _ } ->
          Alcotest.(check string) "method" "brent" method_
        | r -> Alcotest.failf "expected No_convergence, got %g" r);
    u "newton raises No_convergence when the budget runs out" (fun () ->
        (* x^2 + 1 has no real root: Newton wanders forever. *)
        match Root.newton ~max_iter:20 ~f:(fun x -> (x *. x) +. 1.0) ~df:(fun x -> 2.0 *. x) 0.3 with
        | exception Root.No_convergence { method_; iterations; _ } ->
          Alcotest.(check string) "method" "newton" method_;
          Alcotest.(check int) "iterations" 20 iterations
        | r -> Alcotest.failf "expected No_convergence, got %g" r);
    u "converging budgets are unchanged by the on_fail machinery" (fun () ->
        (* Bit-identical to the same calls without ?on_fail: the tolerance
           check precedes the budget check, so a converging sequence never
           touches the exhaustion path. *)
        Alcotest.(check (float 0.0)) "bisect" (Root.bisect cos 1.0 2.0)
          (Root.bisect ~on_fail:`Accept cos 1.0 2.0);
        Alcotest.(check (float 0.0)) "brent" (Root.brent cos 1.0 2.0)
          (Root.brent ~on_fail:`Accept cos 1.0 2.0));
    u "find_bracket refuses NaN endpoint evaluations" (fun () ->
        let f x = if x > 1.5 then Float.nan else x -. 10.0 in
        Alcotest.(check bool) "none" true (Root.find_bracket ~max_iter:10 f 0.0 1.0 = None));
    u "find_bracket refuses infinite endpoint evaluations" (fun () ->
        (* -inf * positive < 0 looks like a sign change; it must not. *)
        let f x = if x < -1.0 then Float.neg_infinity else (x *. x) +. 1.0 in
        Alcotest.(check bool) "none" true (Root.find_bracket ~max_iter:10 f 0.0 1.0 = None));
    u "find_bracket refuses a NaN starting endpoint" (fun () ->
        let f x = if x = 0.0 then Float.nan else x in
        Alcotest.(check bool) "none" true (Root.find_bracket ~max_iter:10 f 0.0 1.0 = None));
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
        let g = Grid.refined_around 0.0 100e-9 ~centers:[ 50e-9 ] ~h_min:1e-9 ~h_max:10e-9 in
        Test_util.check_float "start" 0.0 g.(0);
        Test_util.check_float "end" 100e-9 g.(Array.length g - 1);
        let i = ref 0 in
        Array.iteri (fun k x -> if Float.abs (x -. 50e-9) < Float.abs (g.(!i) -. 50e-9) then i := k) g;
        let h_local = g.(!i + 1) -. g.(!i) in
        Alcotest.(check bool) "fine at centre" true (h_local < 3e-9));
    u "spacings of a refined grid are bounded" (fun () ->
        let g = Grid.refined_around 0.0 1.0 ~centers:[ 0.3 ] ~h_min:0.01 ~h_max:0.2 in
        Array.iter
          (fun h -> Test_util.check_in_range "h" ~lo:0.005 ~hi:0.30 h)
          (Grid.spacings g));
    u "concat_unique merges and dedups" (fun () ->
        let g = Grid.concat_unique [| 0.0; 1.0; 2.0 |] [| 1.0; 3.0 |] in
        Alcotest.(check int) "length" 4 (Array.length g);
        Test_util.check_increasing "merged" g);
    u "midpoints" (fun () ->
        let m = Grid.midpoints [| 0.0; 2.0; 6.0 |] in
        Test_util.check_float "m0" 1.0 m.(0);
        Test_util.check_float "m1" 4.0 m.(1));
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
    u "correlation of an exact line is 1" (fun () ->
        let xs = Vec.linspace 0.0 1.0 10 in
        let ys = Array.map (fun x -> 2.0 *. x) xs in
        Test_util.check_rel "corr" ~rel:1e-9 1.0 (Stats.correlation xs ys));
    u "correlation of an anti-line is -1" (fun () ->
        let xs = Vec.linspace 0.0 1.0 10 in
        let ys = Array.map (fun x -> -.x) xs in
        Test_util.check_rel "corr" ~rel:1e-9 (-1.0) (Stats.correlation xs ys));
    u "geometric mean ratio of a geometric series" (fun () ->
        Test_util.check_rel "ratio" ~rel:1e-12 0.8
          (Stats.geometric_mean_ratio [| 1.0; 0.8; 0.64; 0.512 |]));
    u "min and max" (fun () ->
        let xs = [| 3.0; -1.0; 4.0 |] in
        Test_util.check_float "min" (-1.0) (Stats.minimum xs);
        Test_util.check_float "max" 4.0 (Stats.maximum xs));
  ]

let suite =
  [
    ("numerics.vec", vec_tests);
    ("numerics.matrix", matrix_tests);
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
