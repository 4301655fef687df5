(** Side-by-side evaluation of the two scaling strategies — the common
    record every Sec. 3.3 comparison figure (Figs. 9-12) reads from — and
    the one place a strategy name maps to a device selection. *)

type kind = Super_vth | Sub_vth

val kind_name : kind -> string
(** Display name: ["super-Vth"] or ["sub-Vth"]. *)

val kinds : kind list
(** Both strategies, super-V_th first. *)

val kind_key : kind -> string
(** The short name, ["super"] or ["sub"]: what the CLI's [--strategy] and
    the daemon's ["strategy"] field accept, and what memo keys and trace
    attributes record. *)

val select :
  kind ->
  Roadmap.node ->
  Device.Params.physical * Circuits.Inverter.pair
(** The device the strategy selects at a node ({!Super_vth.select_node} or
    {!Sub_vth.select_node}), memoized on (kind, node, calibration): a
    repeated selection is a key and a lookup. *)

val selection_key : kind -> Roadmap.node -> string
(** The key both {!select_memo} and {!evaluate_memo} file a (kind, node)
    under: the strategy, the node and the default calibration. *)

val select_memo : (Device.Params.physical * Circuits.Inverter.pair) Exec.Memo.t
(** The memo table behind {!select} (["scaling.select"]), exposed so a
    daemon can attach a persistent tier with {!selection_codec}. *)

val selection_codec : (Device.Params.physical * Circuits.Inverter.pair) Exec.Store.codec
(** A versioned ([select/1]) store codec of a selection.  It stores the
    physical parameters as IEEE-754 bits and rebuilds the pair on decode
    with [Circuits.Inverter.pair_of_physical
    ~cal:Device.Params.default_calibration], the call both strategies
    select with, so a decoded selection is bit-identical to the computed
    one.  A record with another tag decodes as [None]. *)

val resolve :
  node:int ->
  strategy:string ->
  (Roadmap.node * kind * Device.Params.physical * Circuits.Inverter.pair, string) result
(** Look up a node label and a strategy key, then {!select}.  The error
    strings, e.g. ["unknown node 14 (known: 130, 90, 65, 45, 32)"] and
    ["unknown strategy \"x\" (super or sub)"], are what the CLI prints and
    the daemon returns. *)

type evaluation = {
  kind : kind;
  node : Roadmap.node;
  phys : Device.Params.physical;
  pair : Circuits.Inverter.pair;
  ss : float;  (** [V/dec] *)
  vth_sat : float;  (** const-current V_th at nominal V_dd [V] *)
  ioff_nominal : float;  (** [A/m] at V_ds = nominal V_dd *)
  ion_sub : float;  (** [A/m] at V_gs = V_ds = 250 mV *)
  on_off_sub : float;  (** I_on/I_off at 250 mV *)
  snm_sub : float;  (** inverter SNM at 250 mV [V] *)
  delay_sub : float;  (** analytic FO1 delay at 250 mV [s] *)
  energy_factor : float;  (** C_L S_S^2 *)
  delay_factor : float;  (** C_L S_S / I_off *)
  vmin : float;  (** energy-optimal supply [V] *)
  energy_at_vmin : float;  (** chain energy per cycle at V_min [J] *)
}

val evaluate_memo : evaluation Exec.Memo.t
(** The ["scaling.evaluate"] memo table behind {!evaluate}, filed by
    {!selection_key}.  The daemon looks an evaluation up on its select
    loop and computes a miss with {!evaluate_uncached}. *)

val evaluate : kind -> Roadmap.node -> evaluation
(** The evaluation of the device {!select} picks, memoized on the same
    (kind, node, calibration) key. *)

val evaluate_uncached :
  kind -> Roadmap.node -> Device.Params.physical -> Circuits.Inverter.pair -> evaluation
(** The raw solve behind {!evaluate}, bypassing the memo table — the
    audit's reference when cross-checking cached results. *)

val evaluation_fingerprint : evaluation -> string
(** Bit-exact content fingerprint (every float as its IEEE-754 bits), for
    the audit's schedule-perturbation diff: outputs of a sweep replayed
    under a perturbed pool schedule must fingerprint identically. *)

val trajectory : ?with_130:bool -> kind -> evaluation list
(** The strategy over the roadmap, 90 to 32 nm (130 nm first when
    [with_130]): each node's device selected and evaluated, one node per
    pool task. *)
