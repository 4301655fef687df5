exception No_convergence of string

let iterations_counter = Obs.Metrics.counter "spice.newton.iterations"

module Fvec = Numerics.Fvec
module Sparse_lu = Numerics.Sparse_lu

(* An analysis's Newton scratch: the residual (overwritten with the
   update), the Jacobian's values and factors, the iterate, the sources'
   drive and values for the current run, and a MOSFET stamp's bias
   buffer. *)
type workspace = {
  f : Fvec.t;
  lu : Sparse_lu.t;
  x : Numerics.Vec.t;
  drive : Mna.drive;
  values : float array;
  bias : float array;
}

let workspace sys =
  let n = Mna.size sys in
  {
    f = Fvec.create n;
    lu = Sparse_lu.create (Mna.pattern sys);
    x = Array.make n 0.0;
    drive = { Mna.time = 0.0; scale = 1.0 };
    (* One per voltage source: the unknowns past the node voltages. *)
    values = Array.make (n - (Mna.node_count sys - 1)) 0.0;
    bias = Array.make 3 0.0;
  }

let drive ws = ws.drive
let iterate ws = ws.x

(* [Float.max m x] for a running maximum [m] of [Float.abs] values, bit for
   bit (once either is NaN the result stays NaN), without a call that
   would box its floats. *)
let[@inline] running_max m (x : float) = if x > m || Float.is_nan x then x else m

(* One damped Newton run on [Mna.assemble] at the workspace's drive:
   updates clamped to 0.3 V in the infinity norm, sparse LU, converged
   when an unclamped update is below 1e-9.  The iterate, the residual and
   the Jacobian's values and factors live in [ws], factored and solved in
   place; the run starts by copying [x0] into the iterate and the sources'
   values into [ws], and [assemble] and the factorization overwrite every
   other entry each iteration, so what a previous run left there is never
   read.  Returns false on failure rather than raising, so the callers can
   retreat (source stepping, a smaller time step). *)
let newton ws sys ~overrides ~caps ~max_iter x0 =
  let n = Array.length x0 in
  let { f; lu; x; drive; values; bias } = ws in
  if Fvec.length f <> n then invalid_arg "Dcop.newton: workspace size mismatch";
  let jac = Sparse_lu.values lu in
  Mna.source_values sys drive ~overrides values;
  Array.blit x0 0 x 0 n;
  let tol = 1e-9 and clamp = 0.3 in
  let iter = ref 0 and running = ref true and converged = ref false in
  while !running do
    if !iter >= max_iter then running := false
    else begin
      Obs.Metrics.incr iterations_counter;
      Mna.assemble sys drive ~values ~caps ~bias ~x ~f ~jac;
      match Sparse_lu.factor lu with
      | exception Sparse_lu.Zero_pivot _ -> running := false
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
        if maxd *. scale < tol && Float.equal scale 1.0 then begin
          converged := true;
          running := false
        end
        else incr iter
    end
  done;
  !converged

(* The operating-point Newton at one source scale. *)
let newton_at_scale ws sys ~overrides ~scale ~max_iter x0 =
  ws.drive.Mna.time <- 0.0;
  ws.drive.Mna.scale <- scale;
  newton ws sys ~overrides ~caps:[||] ~max_iter x0

let solve_in ws ?x0 ?(overrides = []) sys =
  let max_iter = 120 in
  let n = Mna.size sys in
  let start = match x0 with Some v -> v | None -> Array.make n 0.0 in
  let _ = Numerics.Guard.vec ~origin:"Dcop.solve: initial guess" start in
  (* The solution is handed out, so it leaves the workspace as a copy. *)
  let guarded x = Numerics.Guard.vec ~origin:"Dcop.solve: solution" (Array.copy x) in
  if newton_at_scale ws sys ~overrides ~scale:1.0 ~max_iter start then guarded ws.x
  else begin
    (* Source stepping: ramp all sources from zero, each step starting from
       the last one's solution, which is still in [ws]. *)
    let steps = 20 in
    let x = ref (Array.make n 0.0) in
    for i = 1 to steps do
      let scale = float_of_int i /. float_of_int steps in
      if newton_at_scale ws sys ~overrides ~scale ~max_iter !x then x := ws.x
      else
        raise
          (No_convergence (Printf.sprintf "source stepping failed at scale %.2f" scale))
    done;
    guarded !x
  end

let solve ?x0 ?overrides sys = solve_in (workspace sys) ?x0 ?overrides sys
