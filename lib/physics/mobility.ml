type carrier = Electron | Hole
type field = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Each formula is an [@inline] kernel shared by its point function and,
   through [channel_at], by the field loop, which then boxes no float per
   node. *)

(* Caughey–Thomas with Arora parameters; inputs cm^2/Vs and cm^-3 in the
   literature, converted to SI here. *)
let[@inline] low_field_at c n =
  let mu_min, mu_max, n_ref, alpha =
    match c with
    | Electron -> (68.5, 1414.0, 9.20e16, 0.711)
    | Hole -> (44.9, 470.5, 2.23e17, 0.719)
  in
  (* Constants.to_per_cm3, written out: a call across modules boxes its
     argument and its result. *)
  let n_cm3 = Float.max n 1.0 *. 1e-6 in
  let mu_cm2 = mu_min +. ((mu_max -. mu_min) /. (1.0 +. ((n_cm3 /. n_ref) ** alpha))) in
  mu_cm2 *. 1e-4

let low_field c n = low_field_at c n

let[@inline] degradation ~mu0 ~e_eff ~e_crit ~exponent =
  mu0 /. (1.0 +. ((Float.max e_eff 0.0 /. e_crit) ** exponent))

let effective_field_degradation ~mu0 ~e_eff ~e_crit ~exponent =
  degradation ~mu0 ~e_eff ~e_crit ~exponent

(* Universal mobility curve constants (Takagi): electrons E_crit ~ 9e7 V/m
   exponent 1.6 for the E_eff^-0.3 region approximated as a power law;
   holes E_crit ~ 4.5e7, exponent 1.0.  A flat 0.55 surface factor accounts
   for surface-roughness/phonon scattering relative to bulk.  The vertical
   field is fixed at 5e7 V/m, a typical subthreshold-bias value. *)
(* Lattice (phonon) scattering scales bulk mobility as (T/300)^-1.5. *)
let[@inline] channel_at t c n =
  let e_eff = 5e7 in
  let mu_bulk = low_field_at c n *. ((t /. Constants.t_room) ** -1.5) in
  let e_crit, exponent = match c with Electron -> (9e7, 1.6) | Hole -> (4.5e7, 1.0) in
  degradation ~mu0:(0.55 *. mu_bulk) ~e_eff ~e_crit ~exponent

let channel ?(t = Constants.t_room) c n = channel_at t c n

let channel_into ?(t = Constants.t_room) c ~(doping : field) (dst : field) =
  for k = 0 to Bigarray.Array1.dim dst - 1 do
    dst.{k} <- channel_at t c doping.{k}
  done

let saturation_velocity = function Electron -> 1.07e5 | Hole -> 8.37e4

let critical_field c n = 2.0 *. saturation_velocity c /. channel c n
