type probe = Node of int | Source of string

type result = {
  times : Numerics.Vec.t;
  probes : probe array;
  samples : Numerics.Vec.t array;  (* one per probe, indexed by step *)
}

let steps_counter = Obs.Metrics.counter "spice.transient.steps"

(* The companions are the run's one buffer [caps], rewritten in place:
   backward Euler from the capacitor voltages [vcap], or trapezoidal from
   [vcap] and the branch currents [icap] at the last accepted time point.
   [farads] holds each capacitor's value. *)
let backward_euler_caps caps farads ~h vcap =
  for i = 0 to Array.length caps - 1 do
    let c = caps.(i) in
    c.Mna.geq <- farads.(i) /. h;
    c.Mna.ieq <- c.Mna.geq *. vcap.(i)
  done

let trapezoidal_caps caps farads ~h vcap icap =
  for i = 0 to Array.length caps - 1 do
    let c = caps.(i) in
    c.Mna.geq <- 2.0 *. farads.(i) /. h;
    c.Mna.ieq <- (c.Mna.geq *. vcap.(i)) +. icap.(i)
  done

(* Advance the capacitor state (voltage across, branch current) to the
   accepted solution [x] solved with companions [caps]. *)
let accept_caps sys caps x vcap icap =
  Mna.cap_voltages sys x vcap;
  for i = 0 to Array.length caps - 1 do
    let c = caps.(i) in
    icap.(i) <- (c.Mna.geq *. vcap.(i)) -. c.Mna.ieq
  done

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
  let farads = Array.init nc (Mna.cap_farads sys) in
  (* Everything a step writes is allocated here, once: the Newton
     workspace, the companions and the capacitor state. *)
  let ws = Dcop.workspace sys in
  let caps = Array.init nc (fun _ -> { Mna.geq = 0.0; ieq = 0.0 }) in
  let newton_at ~time ~max_iter x0 =
    Dcop.newton ws (fun ~x ~f ~jac -> Mna.assemble sys ~time ~caps ~x ~f ~jac ())
      ~tol:1e-9 ~max_iter x0
  in
  (* The accepted state; Dcop.newton's result lives in [ws] and is copied
     in. *)
  let x = match x0 with Some x -> Array.copy x | None -> Dcop.solve_in ws sys in
  (* Capacitor state: voltage across and branch current at the last accepted
     time point. *)
  let vcap = Array.make nc 0.0 and vmid = Array.make nc 0.0 in
  Mna.cap_voltages sys x vcap;
  let icap = Array.make nc 0.0 in
  let times = Array.make (n_steps + 1) 0.0 in
  let samples = Array.map (fun _ -> Array.make (n_steps + 1) 0.0) probes in
  let record step =
    for k = 0 to Array.length unknowns - 1 do
      let u = unknowns.(k) in
      samples.(k).(step) <- (if u < 0 then 0.0 else x.(u))
    done
  in
  record 0;
  let t = ref 0.0 in
  for step = 1 to n_steps do
    let h_eff = Float.min h (t_stop -. !t) in
    let t' = !t +. h_eff in
    (* First step: backward Euler (damps trapezoidal start-up ringing). *)
    if step > 1 then trapezoidal_caps caps farads ~h:h_eff vcap icap
    else backward_euler_caps caps farads ~h:h_eff vcap;
    let solved =
      match newton_at ~time:t' ~max_iter:60 x with
      | Some _ as solved -> solved
      | None ->
        (* Retry as two half-steps of backward Euler. *)
        let half = 0.5 *. h_eff in
        backward_euler_caps caps farads ~h:half vcap;
        (match newton_at ~time:(!t +. half) ~max_iter:80 x with
         | None -> None
         | Some mid ->
           Mna.cap_voltages sys mid vmid;
           backward_euler_caps caps farads ~h:half vmid;
           newton_at ~time:t' ~max_iter:80 mid)
    in
    match solved with
    | None -> raise (Dcop.No_convergence (Printf.sprintf "transient stuck at t=%.3e s" t'))
    | Some x' ->
      if Numerics.Guard.is_enabled () then
        ignore
          (Numerics.Guard.vec ~origin:(Printf.sprintf "Transient.run: state at t=%.3e" t') x');
      accept_caps sys caps x' vcap icap;
      Array.blit x' 0 x 0 (Array.length x);
      Obs.Metrics.incr steps_counter;
      times.(step) <- t';
      record step;
      t := t'
  done;
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
