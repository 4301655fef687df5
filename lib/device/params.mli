(** Device parameter records.

    [physical] holds the four key scaling parameters of the paper's Sec. 2.2
    (L_poly, T_ox, N_sub, N_p,halo) plus V_dd — exactly what Tables 2 and 3
    tabulate.  [calibration] holds the model constants that tie the compact
    model to 2-D behaviour; they are fitted once against the paper's 90 nm
    anchor point and the TCAD substrate, then held fixed for every node and
    both scaling strategies. *)

type physical = {
  node_nm : int;  (** technology node label, e.g. 90 *)
  lpoly : float;  (** etched gate length [m] *)
  tox : float;  (** gate oxide thickness [m] *)
  nsub : float;  (** substrate acceptor density [m^-3] *)
  np_halo : float;  (** peak halo acceptor density added to N_sub [m^-3] *)
  vdd : float;  (** nominal supply [V] *)
  xj : float option;  (** junction depth [m]; [None] scales with L_poly *)
  overlap : float option;  (** gate/S-D overlap [m]; [None] scales with L_poly *)
}

(** The optional geometry overrides matter for the sub-V_th strategy: a
    longer gate drawn in the *same* process keeps the node's junction depth
    and overlap, so L_eff grows faster than L_poly and the overlap
    capacitance does not grow.  The roadmap's own devices (where every
    dimension except T_ox shrinks with L_poly) use [None]. *)

val nhalo_net : physical -> float
(** Net halo doping N_halo = N_sub + N_p,halo, the quantity Table 2 lists. *)

type calibration = {
  xj_fraction : float;  (** default junction depth / L_poly *)
  overlap_fraction : float;  (** default gate/S-D overlap / L_poly; L_eff = L_poly - 2 overlap *)
  k_halo : float;  (** halo weight in N_eff: f = min(0.85, k_halo xj / L_eff) *)
  k_body : float;  (** multiplier on the 3 T_ox/W_dep body term of Eq. 2b *)
  k_sce : float;  (** multiplier on the 11 T_ox/W_dep SCE term of Eq. 2b *)
  k_lambda : float;  (** multiplier on the SCE decay length in Eq. 2b's exponent *)
  lambda_xj_exp : float;  (** x_j exponent in the decay length x_j^a (T_ox W_dep)^((1-a)/2) *)
  halo_sce_exp : float;
      (** halo-engineering strength: the decay length shrinks as
          (N_sub/N_halo)^halo_sce_exp — pockets exist to suppress roll-off,
          so a heavy halo dose buys channel control beyond its mean-doping
          effect *)
  ss_offset : float;  (** additive S_S correction [V/dec] *)
  k_vth_sce : float;  (** V_th roll-off strength *)
  k_dibl : float;  (** DIBL strength relative to the roll-off term *)
  vth_offset : float;  (** additive V_th correction [V] *)
  mu_factor : float;
      (** effective-mobility multiplier; the default corrects the universal
          mobility curve's pessimism at the operating vertical field so the
          nominal-V_dd I_on lands in the published LSTP range *)
  fringe_cap : float;  (** gate fringe + overlap extra capacitance [F/m width] per side *)
  load_factor : float;  (** C_L = load_factor * (C_g,n + C_g,p) for FO1 *)
}

val default_calibration : calibration
(** Fitted to anchor the super-V_th 90 nm device at the paper's reported
    S_S ~ 86 mV/dec, V_th,sat ~ 0.40 V and its 11 % S_S degradation by 32 nm
    (see EXPERIMENTS.md for the residuals). *)

type polarity = Nfet | Pfet

(** {2 Shadow tracing of parameter reads}

    The memo-soundness half of [subscale audit] must know which parameter
    fields a cached computation actually consumed.  Model code reads fields
    through the [read_*] accessors; inside {!Trace.collect} each access
    records its field name.  Tracing is for the sequential audit pass —
    with no trace active an accessor costs a single ref read. *)

module Trace : sig
  val collect : (unit -> 'a) -> 'a * string list
  (** [collect f] runs [f] under a fresh trace and returns its result with
      the sorted, deduplicated list of field names read.  Nested collects
      restore the outer trace on exit. *)
end

val read_lpoly : physical -> float
val read_tox : physical -> float
val read_nsub : physical -> float
val read_xj : physical -> float option
val read_overlap : physical -> float option

val read_xj_fraction : calibration -> float
val read_overlap_fraction : calibration -> float
val read_k_halo : calibration -> float
val read_k_body : calibration -> float
val read_k_sce : calibration -> float
val read_k_lambda : calibration -> float
val read_lambda_xj_exp : calibration -> float
val read_ss_offset : calibration -> float
val read_k_vth_sce : calibration -> float
val read_k_dibl : calibration -> float
val read_vth_offset : calibration -> float
val read_mu_factor : calibration -> float
val read_fringe_cap : calibration -> float
val read_load_factor : calibration -> float

val physical_key : physical -> string
(** Canonical content key over every field (floats rendered as exact IEEE-754
    bit patterns), for [Exec.Memo] tables.  Two records produce the same key
    iff they are structurally equal. *)

val calibration_key : calibration -> string
(** Canonical content key over every calibration constant. *)

val polarity_key : polarity -> string

val physical_key_fields : string list
val calibration_key_fields : string list
(** Field names encoded by {!physical_key} / {!calibration_key}, in key
    order — the coverage sets the memo-soundness auditor checks traced
    read-sets against. *)

val paper_table2 : physical list
(** The paper's Table 2 NFET parameters (super-V_th strategy), verbatim. *)

val paper_table3 : physical list
(** The paper's Table 3 NFET parameters (sub-V_th strategy), verbatim;
    V_dd is not listed in Table 3 (operation is at V_min), recorded as 0. *)
