exception No_convergence of string

let iterations_counter = Obs.Metrics.counter "spice.newton.iterations"

(* One damped Newton run on [assemble ~x ~f ~jac], which fills F(x) and
   dF/dx: updates clamped to 0.3 V in the infinity norm, dense LU.  The
   residual, Jacobian, pivot order and update are scratch owned by this
   call, factored and solved in place.  Returns None on failure rather
   than raising, so the callers can retreat (source stepping, a smaller
   time step). *)
let newton assemble ~tol ~max_iter x0 =
  let n = Array.length x0 in
  let x = Array.copy x0 in
  let f = Array.make n 0.0 and jac = Numerics.Matrix.create n n in
  let perm = Array.make n 0 and dx = Array.make n 0.0 in
  let clamp = 0.3 in
  let rec loop iter =
    if iter >= max_iter then None
    else begin
      Obs.Metrics.incr iterations_counter;
      assemble ~x ~f ~jac;
      match Numerics.Matrix.lu_factor_in_place jac perm with
      | exception Numerics.Matrix.Singular _ -> None
      | () ->
        (* [dx] solves J dx = F; the Newton update is -dx. *)
        Numerics.Matrix.lu_solve_into jac perm f dx;
        let maxd = Numerics.Vec.norm_inf dx in
        let scale = if maxd > clamp then clamp /. maxd else 1.0 in
        for i = 0 to n - 1 do
          x.(i) <- x.(i) -. (scale *. dx.(i))
        done;
        if maxd *. scale < tol && Float.equal scale 1.0 then Some x else loop (iter + 1)
    end
  in
  loop 0

(* The operating-point Newton at one source scale. *)
let newton_at_scale sys ~overrides ~source_scale ~tol ~max_iter x0 =
  newton
    (fun ~x ~f ~jac -> Mna.assemble sys ~time:0.0 ~source_scale ~overrides ~x ~f ~jac ())
    ~tol ~max_iter x0

let solve ?x0 ?(overrides = []) sys =
  let tol = 1e-9 and max_iter = 120 in
  let n = Mna.size sys in
  let start = match x0 with Some v -> Array.copy v | None -> Array.make n 0.0 in
  let _ = Numerics.Guard.vec ~origin:"Dcop.solve: initial guess" start in
  let guarded x = Numerics.Guard.vec ~origin:"Dcop.solve: solution" x in
  match newton_at_scale sys ~overrides ~source_scale:1.0 ~tol ~max_iter start with
  | Some x -> guarded x
  | None ->
    (* Source stepping: ramp all sources from zero. *)
    let steps = 20 in
    let x = ref (Array.make n 0.0) in
    for i = 1 to steps do
      let scale = float_of_int i /. float_of_int steps in
      match newton_at_scale sys ~overrides ~source_scale:scale ~tol ~max_iter !x with
      | Some sol -> x := sol
      | None ->
        raise
          (No_convergence (Printf.sprintf "source stepping failed at scale %.2f" scale))
    done;
    guarded !x
