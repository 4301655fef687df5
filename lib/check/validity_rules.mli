(** Interval abstract interpretation of the paper's model chain — the
    validity half of [subscale audit].

    The concrete pipeline ([Device.Compact.build] → [Device.Iv_model] →
    [Analysis.Delay.eq5] → [Analysis.Energy.analytic]) is re-executed over
    the {!Interval} domain: each physical parameter becomes an interval,
    each derived quantity a guaranteed enclosure of every concrete value
    the parameter box can produce.  Soundness contract (the property the
    qcheck suite exercises): for any concrete [Params.physical] inside a
    {!box}, every concrete metric lies inside the corresponding {!derived}
    / {!circuit} interval.

    On top of the enclosures sit the regime rules, reported through
    {!Diagnostic} with stable ids:

    - [AUD001] — operating point can leave the weak-inversion domain of
      Eq. (1) (error once definitely past V_th + 2 m v_T);
    - [AUD002] — V_ds below 3 v_T breaks Eq. (1)'s drain saturation;
    - [AUD003] — division by a zero-straddling interval;
    - [AUD004] — an exp argument can exceed ln(max_float);
    - [AUD005] — a log/sqrt argument can leave the function's domain;
    - [AUD006] — propagated S_S outside the physical band of Eq. (2);
    - [AUD007] — the overlap can consume the gate (L_eff ≤ 0);
    - [AUD008] — TCAD mesh under-resolution ({!check_mesh});
    - [AUD009] — the V_min search bracket dips below the Eq. (7)–(8)
      validity floor;
    - [AUD010] — I_on/I_off too low for a regenerative VTC.

    Because the arithmetic is sound, a clean report is a proof that no
    point of the box trips the hazard. *)

type box = {
  lpoly : Interval.t;
  tox : Interval.t;
  nsub : Interval.t;
  np_halo : Interval.t;
  xj : Interval.t option;  (** [None]: defaults to xj_fraction · L_poly *)
  overlap : Interval.t option;  (** [None]: defaults to overlap_fraction · L_poly *)
}

val box_of_physical : ?widen:float -> Device.Params.physical -> box
(** Degenerate (point) box for a concrete parameter record; [widen] pushes
    every endpoint out by that relative amount, turning the audit into a
    tolerance analysis around the shipped configuration. *)

(** Enclosures of the quantities [Device.Compact.t] and [Device.Iv_model]
    derive, evaluated at the audit operating point. *)
type derived = {
  xj : Interval.t;
  overlap : Interval.t;
  leff : Interval.t;
  neff : Interval.t;
  phi_f : Interval.t;
  wdep : Interval.t;
  cox : Interval.t;
  ss : Interval.t;
  m : Interval.t;
  vth0 : Interval.t;
  vbi : Interval.t;
  lt : Interval.t;
  mu : Interval.t;
  cg : Interval.t;
  cg_intrinsic : Interval.t;
  vth : Interval.t;  (** V_th at V_ds = op_vdd *)
  ion : Interval.t;  (** I_d(op_vdd, op_vdd) per width *)
  ioff : Interval.t;  (** I_d(0, op_vdd) per width *)
  on_off : Interval.t;
}

(** Enclosures of the FO1 inverter metrics ([Analysis.Delay.eq5] and
    [Analysis.Energy.analytic] at the library defaults). *)
type circuit = {
  cl : Interval.t;
  tp : Interval.t;
  t_cycle : Interval.t;
  e_dyn : Interval.t;
  e_leak : Interval.t;
  e_total : Interval.t;
}

type report = {
  what : string;
  nfet : derived;
  pfet : derived;
  circuit : circuit;
  diags : Diagnostic.t list;
}

val audit_box : ?what:string -> op_vdd:Interval.t -> box -> report
(** Propagate both polarities and the FO1 circuit through the box at the
    given operating supply, under the default calibration at room
    temperature, collecting every regime diagnostic. *)

val audit_physical :
  ?widen:float ->
  ?op_vdd:float ->
  ?what:string ->
  Device.Params.physical ->
  report
(** {!audit_box} over {!box_of_physical}.  [op_vdd] defaults to the
    record's V_dd when positive, else 0.25 V (the sub-V_th tables leave
    V_dd unset). *)

val check_mesh : ?nx:int -> ?ny:int -> Tcad.Structure.description -> Diagnostic.t list
(** AUD008: build the mesh (cheap — no solve) and verify the resolution
    preconditions the drift-diffusion discretization relies on: enough
    lateral lines under the gate, surface spacing fine against x_j, and
    enough vertical lines within the junction depth. *)
