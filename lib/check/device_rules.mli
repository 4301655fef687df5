(** Device and physics validation: parameter records and compact models
    checked before they are handed to an optimizer or simulator.

    Rules: [dev-nonpositive-param], [dev-negative-doping],
    [dev-param-range], [dev-halo-geometry], [dev-nonmonotonic-id],
    [dev-nonfinite-id]. *)

val check_physical : Device.Params.physical -> Diagnostic.t list
(** Validate a node's physical parameter record: positivity of
    L_poly/T_ox/V_dd/dopings, unit-mistake envelopes, overlap vs channel. *)

val check_description : Tcad.Structure.description -> Diagnostic.t list
(** Validate a TCAD deck before meshing: doping positivity, halo pocket
    geometry inside the simulated box, temperature range. *)

val check_compact : Device.Compact.t -> vdd:float -> Diagnostic.t list
(** Probe I_d(V_gs) at 5 points at V_ds = 50 mV and
    V_ds = [vdd]: currents must be finite, nonnegative and strictly
    increasing in V_gs. *)
