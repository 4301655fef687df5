exception No_convergence of string

let iterations_counter = Obs.Metrics.counter "spice.newton.iterations"

module Fvec = Numerics.Fvec
module Sparse_lu = Numerics.Sparse_lu

type workspace = { f : Fvec.t; lu : Sparse_lu.t; x : Numerics.Vec.t }

let workspace sys =
  let n = Mna.size sys in
  { f = Fvec.create n; lu = Sparse_lu.create (Mna.pattern sys); x = Array.make n 0.0 }

(* [Float.max m x] for a running maximum [m] of [Float.abs] values, bit for
   bit (once either is NaN the result stays NaN), without a call that
   would box its floats. *)
let[@inline] running_max m (x : float) = if x > m || Float.is_nan x then x else m

(* One damped Newton run on [assemble ~x ~f ~jac], which fills F(x) and
   dF/dx: updates clamped to 0.3 V in the infinity norm, sparse LU.  The
   iterate, the residual and the Jacobian's values and factors live in
   [ws], factored and solved in place; the run starts by copying [x0] into
   the iterate, and [assemble] and the factorization overwrite every other
   entry each iteration, so what a previous run left there is never read.
   Returns None on failure rather than raising, so the callers can retreat
   (source stepping, a smaller time step). *)
let newton ws assemble ~tol ~max_iter x0 =
  let n = Array.length x0 in
  let f = ws.f and lu = ws.lu and x = ws.x in
  if Fvec.length f <> n then invalid_arg "Dcop.newton: workspace size mismatch";
  let jac = Sparse_lu.values lu in
  Array.blit x0 0 x 0 n;
  let clamp = 0.3 in
  let rec loop iter =
    if iter >= max_iter then None
    else begin
      Obs.Metrics.incr iterations_counter;
      assemble ~x ~f ~jac;
      match Sparse_lu.factor lu with
      | exception Sparse_lu.Zero_pivot _ -> None
      | () ->
        (* [f] becomes dx, which solves J dx = F; the Newton update is -dx. *)
        Sparse_lu.substitute lu ~dst:f;
        let maxd = ref 0.0 in
        for i = 0 to n - 1 do
          maxd := running_max !maxd (Float.abs (Bigarray.Array1.unsafe_get f i))
        done;
        let maxd = !maxd in
        let scale = if maxd > clamp then clamp /. maxd else 1.0 in
        for i = 0 to n - 1 do
          x.(i) <- x.(i) -. (scale *. Bigarray.Array1.unsafe_get f i)
        done;
        if maxd *. scale < tol && Float.equal scale 1.0 then Some x else loop (iter + 1)
    end
  in
  loop 0

(* The operating-point Newton at one source scale. *)
let newton_at_scale ws sys ~overrides ~source_scale ~tol ~max_iter x0 =
  newton ws
    (fun ~x ~f ~jac -> Mna.assemble sys ~time:0.0 ~source_scale ~overrides ~x ~f ~jac ())
    ~tol ~max_iter x0

let solve_in ws ?x0 ?(overrides = []) sys =
  let tol = 1e-9 and max_iter = 120 in
  let n = Mna.size sys in
  let start = match x0 with Some v -> v | None -> Array.make n 0.0 in
  let _ = Numerics.Guard.vec ~origin:"Dcop.solve: initial guess" start in
  (* The solution is handed out, so it leaves the workspace as a copy. *)
  let guarded x = Numerics.Guard.vec ~origin:"Dcop.solve: solution" (Array.copy x) in
  match newton_at_scale ws sys ~overrides ~source_scale:1.0 ~tol ~max_iter start with
  | Some x -> guarded x
  | None ->
    (* Source stepping: ramp all sources from zero, each step starting from
       the last one's solution, which is still in [ws]. *)
    let steps = 20 in
    let x = ref (Array.make n 0.0) in
    for i = 1 to steps do
      let scale = float_of_int i /. float_of_int steps in
      match newton_at_scale ws sys ~overrides ~source_scale:scale ~tol ~max_iter !x with
      | Some sol -> x := sol
      | None ->
        raise
          (No_convergence (Printf.sprintf "source stepping failed at scale %.2f" scale))
    done;
    guarded !x

let solve ?x0 ?overrides sys = solve_in (workspace sys) ?x0 ?overrides sys
