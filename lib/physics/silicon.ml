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

let builtin_potential ?(t = Constants.t_room) na nd =
  let ni = ni_at t in
  Constants.thermal_voltage t *. log (na *. nd /. (ni *. ni))

type field = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* asinh in log form; computed on |x| to avoid the catastrophic cancellation
   of x + sqrt(x^2 + 1) for large negative x.  One kernel for the point
   function and the field loop, where no float is boxed. *)
let[@inline] bulk_potential ~ni ~vt d =
  let x = d /. (2.0 *. ni) in
  let ax = Float.abs x in
  let asinh_ax = log (ax +. sqrt ((ax *. ax) +. 1.0)) in
  vt *. (if x >= 0.0 then asinh_ax else -.asinh_ax)

let bulk_potential_of_net_doping ?(t = Constants.t_room) d =
  bulk_potential ~ni:(ni_at t) ~vt:(Constants.thermal_voltage t) d

let bulk_potential_into ?(t = Constants.t_room) ~(net_doping : field) (dst : field) =
  let ni = ni_at t and vt = Constants.thermal_voltage t in
  for k = 0 to Bigarray.Array1.dim dst - 1 do
    dst.{k} <- bulk_potential ~ni ~vt net_doping.{k}
  done
