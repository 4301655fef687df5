let bandgap t = 1.17 -. (4.73e-4 *. t *. t /. (t +. 636.0))

(* Misiakos & Tsamakis (1993): n_i in cm^-3; converted to m^-3. *)
let intrinsic_density t = 5.29e19 *. ((t /. 300.0) ** 2.54) *. exp (-6726.0 /. t) *. 1e6

let ni_room = intrinsic_density Constants.t_room

let ni_at t = if Float.equal t Constants.t_room then ni_room else intrinsic_density t

let fermi_potential ?(t = Constants.t_room) n =
  if n <= 0.0 then invalid_arg "Silicon.fermi_potential: doping must be positive";
  Constants.thermal_voltage t *. log (n /. ni_at t)

let depletion_width ~psi ~doping =
  if doping <= 0.0 then invalid_arg "Silicon.depletion_width: doping must be positive";
  if psi <= 0.0 then 0.0
  else sqrt (2.0 *. Constants.eps_si *. psi /. (Constants.q *. doping))

let max_depletion_width n = depletion_width ~psi:(2.0 *. fermi_potential n) ~doping:n

let debye_length n =
  if n <= 0.0 then invalid_arg "Silicon.debye_length: doping must be positive";
  let vt = Constants.thermal_voltage Constants.t_room in
  sqrt (Constants.eps_si *. vt /. (Constants.q *. n))

let builtin_potential ?(t = Constants.t_room) na nd =
  let ni = ni_at t in
  Constants.thermal_voltage t *. log (na *. nd /. (ni *. ni))

(* asinh in log form; computed on |x| to avoid the catastrophic cancellation
   of x + sqrt(x^2 + 1) for large negative x. *)
let bulk_potential_of_net_doping ?(t = Constants.t_room) d =
  let ni = ni_at t in
  let x = d /. (2.0 *. ni) in
  let ax = Float.abs x in
  let asinh_ax = log (ax +. sqrt ((ax *. ax) +. 1.0)) in
  Constants.thermal_voltage t *. (if x >= 0.0 then asinh_ax else -.asinh_ax)
