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
let[@inline] backward_euler_caps caps farads ~h vcap =
  for i = 0 to Array.length caps - 1 do
    let c = caps.(i) in
    c.Mna.geq <- farads.(i) /. h;
    c.Mna.ieq <- c.Mna.geq *. vcap.(i)
  done

let[@inline] trapezoidal_caps caps farads ~h vcap icap =
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
let unknown_of ~what sys = function
  | Node n ->
    if n < 0 || n >= Mna.node_count sys then
      invalid_arg
        (Printf.sprintf "Transient.%s: no node %d (nodes are 0..%d)" what n
           (Mna.node_count sys - 1));
    n - 1
  | Source name -> Mna.source_index sys name

(* The step length and the number of steps of a run over [t_stop]. *)
let grid ~what ~t_stop ~steps =
  if t_stop <= 0.0 then invalid_arg (Printf.sprintf "Transient.%s: t_stop must be positive" what);
  if steps <= 0 then invalid_arg (Printf.sprintf "Transient.%s: steps must be positive" what);
  let h = t_stop /. float_of_int steps in
  (h, int_of_float (ceil ((t_stop /. h) -. 1e-9)))

(* [Float.min x y], bit for bit, without a call that would box its
   floats. *)
let[@inline] float_min (x : float) y =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then if Float.is_nan y then y else x
  else if Float.is_nan x then x
  else y

(* The time of the state an observer is shown: a record of one float is
   stored flat, so a step sets it without boxing. *)
type clock = { mutable now : float }

(* The one integration loop.  [observe step clock x] sees the initial
   state (step 0, [clock.now] = 0) and then every accepted step; [clock]
   and [x], the run's state buffer, are valid only during the call. *)
let integrate ~what ?x0 sys ~t_stop ~h ~n_steps observe =
  let nc = Mna.n_caps sys in
  let farads = Array.init nc (Mna.cap_farads sys) in
  (* Everything a step writes is allocated here, once: the Newton
     workspace, the companions and the capacitor state. *)
  let ws = Dcop.workspace sys in
  let drive = Dcop.drive ws in
  let caps = Array.init nc (fun _ -> { Mna.geq = 0.0; ieq = 0.0 }) in
  let newton ~max_iter x0 = Dcop.newton ws sys ~overrides:[] ~caps ~max_iter x0 in
  (* The accepted state; a Newton solution lives in [ws] and is copied
     in. *)
  let x = match x0 with Some x -> Array.copy x | None -> Dcop.solve_in ws sys in
  (* Capacitor state: voltage across and branch current at the last accepted
     time point. *)
  let vcap = Array.make nc 0.0 and vmid = Array.make nc 0.0 in
  Mna.cap_voltages sys x vcap;
  let icap = Array.make nc 0.0 in
  let clock = { now = 0.0 } in
  observe 0 clock x;
  for step = 1 to n_steps do
    let t = clock.now in
    let h_eff = float_min h (t_stop -. t) in
    let t' = t +. h_eff in
    (* First step: backward Euler (damps trapezoidal start-up ringing). *)
    if step > 1 then trapezoidal_caps caps farads ~h:h_eff vcap icap
    else backward_euler_caps caps farads ~h:h_eff vcap;
    drive.Mna.time <- t';
    let solved =
      newton ~max_iter:60 x
      || begin
        (* Retry as two half-steps of backward Euler. *)
        let half = 0.5 *. h_eff in
        backward_euler_caps caps farads ~h:half vcap;
        drive.Mna.time <- t +. half;
        newton ~max_iter:80 x
        && begin
          let mid = Dcop.iterate ws in
          Mna.cap_voltages sys mid vmid;
          backward_euler_caps caps farads ~h:half vmid;
          drive.Mna.time <- t';
          newton ~max_iter:80 mid
        end
      end
    in
    if not solved then
      raise (Dcop.No_convergence (Printf.sprintf "transient stuck at t=%.3e s" t'));
    let x' = Dcop.iterate ws in
    if Numerics.Guard.is_enabled () then
      ignore
        (Numerics.Guard.vec ~origin:(Printf.sprintf "Transient.%s: state at t=%.3e" what t') x');
    accept_caps sys caps x' vcap icap;
    Array.blit x' 0 x 0 (Array.length x);
    Obs.Metrics.incr steps_counter;
    clock.now <- t';
    observe step clock x
  done

let run ?x0 sys ~probes ~t_stop ~steps =
  let h, n_steps = grid ~what:"run" ~t_stop ~steps in
  let probes = Array.of_list probes in
  let unknowns = Array.map (unknown_of ~what:"run" sys) probes in
  let times = Array.make (n_steps + 1) 0.0 in
  let samples = Array.map (fun _ -> Array.make (n_steps + 1) 0.0) probes in
  integrate ~what:"run" ?x0 sys ~t_stop ~h ~n_steps (fun step clock x ->
      times.(step) <- clock.now;
      for k = 0 to Array.length unknowns - 1 do
        let u = unknowns.(k) in
        samples.(k).(step) <- (if u < 0 then 0.0 else x.(u))
      done);
  { times; probes; samples }

let first_crossings sys ~node ~levels ~after ~t_stop ~steps =
  let h, n_steps = grid ~what:"first_crossings" ~t_stop ~steps in
  let u = unknown_of ~what:"first_crossings" sys (Node node) in
  (* The segment from the last accepted point to the newest one, as the
     two-sample waveform Waveform.segment_crossing reads. *)
  let times = [| 0.0; 0.0 |] and values = [| 0.0; 0.0 |] in
  let found = Array.make (List.length levels) None in
  let scan k level =
    if Option.is_none found.(k) then
      match Waveform.segment_crossing ~times ~values ~level Waveform.Either 0 with
      | Some tc when tc >= after -> found.(k) <- Some tc
      | Some _ | None -> ()
  in
  integrate ~what:"first_crossings" sys ~t_stop ~h ~n_steps (fun step clock x ->
      times.(0) <- times.(1);
      values.(0) <- values.(1);
      times.(1) <- clock.now;
      values.(1) <- (if u < 0 then 0.0 else x.(u));
      if step > 0 then List.iteri scan levels);
  Array.to_list found

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
