type probe = Node of int | Source of string

type result = {
  times : Numerics.Vec.t;
  probes : probe array;
  samples : Numerics.Vec.t array;  (* one per probe, indexed by step *)
}

let steps_counter = Obs.Metrics.counter "spice.transient.steps"

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

let describe = function
  | Node n -> Printf.sprintf "node %d" n
  | Source name -> Printf.sprintf "source %S" name

(* Index of a probe's value in the unknown vector; -1 for ground. *)
let unknown_of sys = function
  | Node n ->
    if n < 0 || n >= Mna.node_count sys then
      invalid_arg
        (Printf.sprintf "Transient.run: no node %d (nodes are 0..%d)" n
           (Mna.node_count sys - 1));
    n - 1
  | Source name -> Mna.source_index sys name

let run ?x0 sys ~probes ~t_stop ~steps =
  if t_stop <= 0.0 then invalid_arg "Transient.run: t_stop must be positive";
  if steps <= 0 then invalid_arg "Transient.run: steps must be positive";
  let probes = Array.of_list probes in
  let unknowns = Array.map (unknown_of sys) probes in
  let h = t_stop /. float_of_int steps in
  let n_steps = int_of_float (ceil ((t_stop /. h) -. 1e-9)) in
  let nc = Mna.n_caps sys in
  let ws = Dcop.workspace sys in
  let newton_at ~time ~caps ~max_iter x0 =
    Dcop.newton ws (fun ~x ~f ~jac -> Mna.assemble sys ~time ~caps ~x ~f ~jac ())
      ~tol:1e-9 ~max_iter x0
  in
  let x_dc = match x0 with Some x -> Array.copy x | None -> Dcop.solve_in ws sys in
  (* Capacitor state: voltage across and branch current at the last accepted
     time point. *)
  let vcap = Array.init nc (fun i -> Mna.cap_voltage sys x_dc i) in
  let icap = Array.make nc 0.0 in
  let times = Array.make (n_steps + 1) 0.0 in
  let samples = Array.map (fun _ -> Array.make (n_steps + 1) 0.0) probes in
  let record step x =
    Array.iteri (fun k u -> samples.(k).(step) <- (if u < 0 then 0.0 else x.(u))) unknowns
  in
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
        match newton_at ~time:t' ~caps:caps_arr ~max_iter:60 x with
        | Some x' -> Some (x', caps_arr)
        | None ->
          (* Retry as two half-steps of backward Euler. *)
          let half = 0.5 *. h_eff in
          (match
             newton_at ~time:(t +. half) ~caps:(backward_euler_caps sys ~h:half vcap)
               ~max_iter:80 x
           with
           | None -> None
           | Some mid ->
             let vmid = Array.init nc (fun i -> Mna.cap_voltage sys mid i) in
             let caps2 = backward_euler_caps sys ~h:half vmid in
             (match newton_at ~time:t' ~caps:caps2 ~max_iter:80 mid with
              | Some x' -> Some (x', caps2)
              | None -> None))
      in
      match solved with
      | None -> raise (Dcop.No_convergence (Printf.sprintf "transient stuck at t=%.3e s" t'))
      | Some (x', caps_used) ->
        if Numerics.Guard.is_enabled () then
          ignore
            (Numerics.Guard.vec ~origin:(Printf.sprintf "Transient.run: state at t=%.3e" t')
               x');
        accept_caps sys caps_used x' vcap icap;
        Obs.Metrics.incr steps_counter;
        times.(step) <- t';
        record step x';
        advance (step + 1) x' t'
    end
  in
  record 0 x_dc;
  advance 1 x_dc 0.0;
  { times; probes; samples }

let times result = result.times

let probed result ~what probe =
  match Array.find_index (( = ) probe) result.probes with
  | Some k -> result.samples.(k)
  | None ->
    invalid_arg
      (Printf.sprintf "Transient.%s: %s was not probed (probes: %s)" what (describe probe)
         (match Array.to_list (Array.map describe result.probes) with
          | [] -> "<none>"
          | names -> String.concat ", " names))

let voltage_of result node = probed result ~what:"voltage_of" (Node node)
let current_of result name = probed result ~what:"current_of" (Source name)

let energy_from_source result ~name ~vdd =
  let currents = probed result ~what:"energy_from_source" (Source name) in
  -.vdd *. Numerics.Integrate.trapezoid_samples result.times currents
