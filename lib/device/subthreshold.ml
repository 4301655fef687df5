let vt_at t = Physics.Constants.thermal_voltage t

let slope_factor ?(k_body = 1.0) ~tox ~wdep () =
  1.0 +. (k_body *. 3.0 *. tox /. wdep)

let short_channel_factor ?(k_sce = 1.0) ?(k_lambda = 1.0) ?(xj_exp = 0.5) ?xj ~tox ~wdep
    ~leff () =
  (* With a junction depth, the decay length is a dimensionally consistent
     weighted geometric mean x_j^a (t_ox W_dep)^((1-a)/2) — a Brews-style
     dependence through which shallower junctions preserve channel control
     in scaled devices; without one, the paper's literal Eq. 2(b) scale
     (W_dep + 3 T_ox). *)
  let lambda =
    match xj with
    | Some xj ->
      k_lambda *. (xj ** xj_exp) *. ((tox *. wdep) ** (0.5 *. (1.0 -. xj_exp)))
    | None -> k_lambda *. (wdep +. (3.0 *. tox))
  in
  1.0 +. (k_sce *. 11.0 *. tox /. wdep *. exp (-.Float.pi *. leff /. (2.0 *. lambda)))

let inverse_slope ?(k_body = 1.0) ?(k_sce = 1.0) ?(k_lambda = 1.0) ?(ss_offset = 0.0)
    ?(t = Physics.Constants.t_room) ?(xj_exp = 0.5) ?xj ~tox ~wdep ~leff () =
  (2.3 *. vt_at t
   *. slope_factor ~k_body ~tox ~wdep ()
   *. short_channel_factor ~k_sce ~k_lambda ~xj_exp ?xj ~tox ~wdep ~leff ())
  +. ss_offset

let current ~i0 ~m ~vth ~vgs ~vds =
  let vt = vt_at Physics.Constants.t_room in
  let e1 = exp (Float.min 80.0 ((vgs -. vth) /. (m *. vt))) in
  i0 *. e1 *. (1.0 -. exp (-.vds /. vt))

let i0_of_spec ~mu ~cox ~m ~leff =
  let vt = vt_at Physics.Constants.t_room in
  mu *. (m -. 1.0) *. cox *. vt *. vt /. leff
