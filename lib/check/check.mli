(** Static analysis for simulation inputs.

    The paper's toolchain (MEDICI, SPICE) refuses malformed decks before
    solving; this library is that pass for ours.  Run {!netlist} /
    {!description} / {!structure} / {!design} / {!physical} / {!compact}
    on a constructed input, get a list of structured {!Diagnostic.t}s, and
    gate the solver on {!Diagnostic.has_errors} — or use {!assert_clean}
    / {!checked_netlist} / {!checked_design} to do the gating inline. *)

module Diagnostic = Diagnostic
module Rules = Rules
module Interval = Interval
module Netlist_drc = Netlist_drc
module Device_rules = Device_rules
module Structure_rules = Structure_rules
module Design_rules = Design_rules
module Validity_rules = Validity_rules
module Memo_soundness = Memo_soundness

exception Check_failed of Diagnostic.t list

val netlist : Spice.Netlist.t -> Diagnostic.t list
(** {!Netlist_drc.check}: the six netlist DRC rule classes plus waveform
    validity. *)

val physical : Device.Params.physical -> Diagnostic.t list
(** {!Device_rules.check_physical}. *)

val compact : Device.Compact.t -> vdd:float -> Diagnostic.t list
(** {!Device_rules.check_compact}: I_d monotonicity/finiteness probes. *)

val description : Tcad.Structure.description -> Diagnostic.t list
(** {!Device_rules.check_description}. *)

val structure :
  ?max_growth:float ->
  ?max_aspect:float ->
  ?min_spacing:float ->
  Tcad.Structure.t ->
  Diagnostic.t list
(** {!Structure_rules.check}. *)

val design : Sta.Design.t -> Diagnostic.t list
(** {!Design_rules.check}. *)

val assert_clean : ?what:string -> Diagnostic.t list -> unit
(** Raise {!Check_failed} if any diagnostic is an error; print warnings
    (prefixed by [what]) to stderr otherwise. *)

val checked_netlist : ?what:string -> Spice.Netlist.t -> Spice.Netlist.t
(** [assert_clean (netlist c); c] — drop-in wrapper at solver call sites. *)

val checked_design : ?what:string -> Sta.Design.t -> Sta.Design.t
