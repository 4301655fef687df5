type result = {
  times : Numerics.Vec.t;
  node_voltages : Numerics.Vec.t array;
  source_currents : (string * Numerics.Vec.t) list;
}

let steps_counter = Obs.Metrics.counter "spice.transient.steps"

(* Newton at one time point with frozen capacitor companions. *)
let newton_at sys ~time ~caps ~x0 ~tol ~max_iter =
  Dcop.newton (fun ~x ~f ~jac -> Mna.assemble sys ~time ~caps ~x ~f ~jac ()) ~tol ~max_iter x0

let backward_euler_caps sys ~h vcap =
  Array.init (Array.length vcap) (fun i ->
      let c = Mna.cap_farads sys i in
      let geq = c /. h in
      { Mna.geq; ieq = geq *. vcap.(i) })

(* Trapezoidal companions from the capacitor voltages and branch currents
   at the last accepted time point. *)
let trapezoidal_caps sys ~h vcap icap =
  Array.init (Array.length vcap) (fun i ->
      let c = Mna.cap_farads sys i in
      let geq = 2.0 *. c /. h in
      { Mna.geq; ieq = (geq *. vcap.(i)) +. icap.(i) })

(* Advance the capacitor state (voltage across, branch current) to the
   accepted solution [x] solved with companions [caps]. *)
let accept_caps sys caps x vcap icap =
  Array.iteri
    (fun i { Mna.geq; ieq } ->
      let v_new = Mna.cap_voltage sys x i in
      vcap.(i) <- v_new;
      icap.(i) <- (geq *. v_new) -. ieq)
    caps

(* Node voltages and source currents of every accepted state, in time
   order. *)
let result_of sys times history =
  let node_voltages =
    Array.init (Mna.node_count sys) (fun node ->
        Array.map (fun x -> Mna.voltage sys x node) history)
  in
  let source_currents =
    List.map
      (fun (name, _, _, _) ->
        (name, Array.map (fun x -> Mna.source_current sys x name) history))
      (Mna.source_list sys)
  in
  { times; node_voltages; source_currents }

let run ?x0 sys ~t_stop ~steps =
  if t_stop <= 0.0 then invalid_arg "Transient.run: t_stop must be positive";
  if steps <= 0 then invalid_arg "Transient.run: steps must be positive";
  let h = t_stop /. float_of_int steps in
  let n_steps = int_of_float (ceil ((t_stop /. h) -. 1e-9)) in
  let nc = Mna.n_caps sys in
  let x_dc = match x0 with Some x -> Array.copy x | None -> Dcop.solve sys in
  (* Capacitor state: voltage across and branch current at the last accepted
     time point. *)
  let vcap = Array.init nc (fun i -> Mna.cap_voltage sys x_dc i) in
  let icap = Array.make nc 0.0 in
  let times = Array.make (n_steps + 1) 0.0 in
  let history = Array.make (n_steps + 1) x_dc in
  let rec advance step x t =
    if step > n_steps then ()
    else begin
      let h_eff = Float.min h (t_stop -. t) in
      let t' = t +. h_eff in
      (* First step: backward Euler (damps trapezoidal start-up ringing). *)
      let trapezoidal = step > 1 in
      let caps_arr =
        if trapezoidal then trapezoidal_caps sys ~h:h_eff vcap icap
        else backward_euler_caps sys ~h:h_eff vcap
      in
      let solved =
        match newton_at sys ~time:t' ~caps:caps_arr ~x0:x ~tol:1e-9 ~max_iter:60 with
        | Some x' -> Some (x', caps_arr)
        | None ->
          (* Retry as two half-steps of backward Euler. *)
          let half = 0.5 *. h_eff in
          (match
             newton_at sys ~time:(t +. half) ~caps:(backward_euler_caps sys ~h:half vcap)
               ~x0:x ~tol:1e-9 ~max_iter:80
           with
           | None -> None
           | Some mid ->
             let vmid = Array.init nc (fun i -> Mna.cap_voltage sys mid i) in
             let caps2 = backward_euler_caps sys ~h:half vmid in
             (match newton_at sys ~time:t' ~caps:caps2 ~x0:mid ~tol:1e-9 ~max_iter:80 with
              | Some x' -> Some (x', caps2)
              | None -> None))
      in
      match solved with
      | None -> raise (Dcop.No_convergence (Printf.sprintf "transient stuck at t=%.3e s" t'))
      | Some (x', caps_used) ->
        let _ =
          Numerics.Guard.vec ~origin:(Printf.sprintf "Transient.run: state at t=%.3e" t') x'
        in
        accept_caps sys caps_used x' vcap icap;
        Obs.Metrics.incr steps_counter;
        times.(step) <- t';
        history.(step) <- x';
        advance (step + 1) x' t'
    end
  in
  times.(0) <- 0.0;
  history.(0) <- x_dc;
  advance 1 x_dc 0.0;
  result_of sys times history

let voltage_of result node = result.node_voltages.(node)

let energy_from_source result ~name ~vdd =
  match List.assoc_opt name result.source_currents with
  | None -> invalid_arg ("Transient.energy_from_source: unknown source " ^ name)
  | Some currents ->
    -.vdd *. Numerics.Integrate.trapezoid_samples result.times currents
