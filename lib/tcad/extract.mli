(** Device characterization from simulated Id–Vg sweeps: inverse subthreshold
    slope, constant-current threshold voltage, DIBL, on/off currents.  This
    is the layer that stands in for the measurements the paper reads off its
    MEDICI decks (Figs. 2, 3, 7).

    Sweeps are warm-started by default: each bias point jumps directly from
    the previous points' converged {!Gummel.state}s, extrapolated in bias
    through up to four of them ({!Gummel.predict}; [characterize] also
    threads the entry state across its Vd planes), falling back to a cold
    start — a fresh ramp from equilibrium — when a jump fails to converge.
    Successful jumps and fallbacks are counted in the
    ["tcad.extract.warm_start"] / ["tcad.extract.warm_fallback"] metrics.
    Passing [~warm:false] forces the cold path for every point — the slow
    reference implementation the equivalence suite compares against. *)

type sweep = {
  vd : float;
  vgs : Numerics.Vec.t;
  ids : Numerics.Vec.t;  (** drain current [A/m], same length as [vgs] *)
}

val id_vg :
  ?vg_min:float -> ?vg_max:float -> ?points:int -> ?warm:bool -> ?tol:float ->
  ?max_gummel:int -> ?max_warm_gummel:int -> Structure.t -> vd:float -> sweep
(** Simulate an Id–Vg sweep at fixed [vd].  Default gate range 0 .. 0.9 V in
    19 points.  Biases are magnitudes: for a P-channel device the applied
    voltages are negated internally.  [tol]/[max_gummel] tune the Gummel
    iteration at every point (defaults as {!Gummel.solve_at});
    [max_warm_gummel] bounds only the speculative warm jumps, so a lower
    value trades continuation speed for earlier fallback.  Raises
    [Invalid_argument] (naming the offending value) when [points < 2]. *)

val id_vg_at : Structure.t -> vd:float -> vgs:Numerics.Vec.t -> sweep
(** As {!id_vg} (warm-started, default Gummel tolerances) over an
    arbitrary gate grid [vgs] — the serving layer's entry point for
    coalesced sweeps, whose merged grids are unions of linspaces rather
    than a linspace.  The grid must be strictly increasing with at least 2
    points (raises [Invalid_argument] naming the offending entry
    otherwise); it is copied, so the caller's array stays untouched. *)

type output_sweep = {
  vg : float;
  vds : Numerics.Vec.t;
  ids : Numerics.Vec.t;  (** drain current [A/m] *)
}

val id_vd :
  ?vd_min:float -> ?vd_max:float -> ?points:int -> ?warm:bool -> ?tol:float ->
  ?max_gummel:int -> Structure.t -> vg:float -> output_sweep
(** Output characteristic at fixed gate bias (magnitudes; P-channel biases
    negated internally).  The drain grid is [linspace vd_min vd_max points]
    — endpoints included — with [vd_min] defaulting to 0, so the sweep
    starts at a true near-equilibrium drain point.  Default sweep 0 .. 0.6 V
    in 13 points.  The continuation is {!id_vg}'s with the drain as the
    swept terminal.  Raises [Invalid_argument] unless [vd_min < vd_max]
    and [points >= 2]. *)

val subthreshold_slope : sweep -> float
(** Inverse subthreshold slope S_S [V/decade], from the least-squares slope
    of V_g against log10(I_d) over an adaptive current window: 2.5 decades
    starting a factor of 3 above the lowest simulated current, safely
    inside weak inversion.  Raises [Failure] if fewer than 3 sweep points
    fall in the window. *)

val threshold_voltage : sweep -> float
(** Constant-current V_th: the gate voltage where I_d crosses 1e-1 A/m
    (100 nA/um), interpolated in log current. *)

val current_at : sweep -> float -> float
(** [current_at sweep vg], interpolating log-linearly. *)

val dibl : low:sweep -> high:sweep -> float
(** DIBL [V/V]: (V_th(low V_d) - V_th(high V_d)) / (V_d,high - V_d,low). *)

type characteristics = {
  ss : float;  (** [V/dec] *)
  vth_lin : float;  (** [V] at V_d = 50 mV *)
  vth_sat : float;  (** [V] at V_d = V_dd *)
  dibl : float;  (** [V/V] *)
  ioff : float;  (** [A/m] at V_g = 0, V_d = V_dd *)
  ion_sub : float;  (** [A/m] at V_g = V_d = 250 mV *)
  on_off_ratio_sub : float;  (** I_on/I_off with both at V_dd = 250 mV *)
  leff : float;  (** metallurgical channel length [m] *)
}

val characterize : ?vdd:float -> Structure.t -> characteristics
(** Characterization at supply [vdd] (default 0.9 V for V_th,sat) and at
    the paper's subthreshold operating point V_dd = 250 mV, from three
    Id–Vg planes on the gate grid [linspace 0 (max vdd 0.9) 19]: V_d = 50 mV
    (S_S, V_th,lin), 250 mV (I_on, I_off at V_dd = 250 mV) and [vdd]
    (V_th,sat, I_off).  One equilibrium solve seeds all three planes; each
    plane's entry state warm-continues from the previous plane's first
    point.  Each plane stops at the first solved point past what its
    figures read — the 50 mV plane once its current exceeds both 0.1 A/m
    and the top of the S_S window, the 250 mV plane at the first gate bias
    above 250 mV, the [vdd] plane once its current exceeds 0.1 A/m — and
    solves all 19 points if it never gets there.  The figures equal those
    of the whole grid as long as each plane's current keeps rising past its
    stop, which holds on every shipped device. *)

val characterize_key : ?nx:int -> ?ny:int -> ?vdd:float -> Structure.description -> string
(** The key of [characterize ?vdd (Structure.build ?nx ?ny desc)] in
    {!characterize_memo}: {!Structure.key_for} (the description and the
    mesh coordinates) and [vdd], so a lookup builds no structure. *)

val sweep_key :
  ?nx:int -> ?ny:int -> Structure.description -> vd:float -> Numerics.Vec.t -> string
(** The key of [id_vg_at (Structure.build ?nx ?ny desc) ~vd ~vgs]:
    {!Structure.key_for}, [vd] and the exact gate grid.  The serve daemon
    files its sweeps under it. *)

val characterize_memo : characteristics Exec.Memo.t
(** The ["tcad.characterize"] memo table, filed by {!characterize_key}.
    The daemon looks a characterization up on its select loop and
    computes only a miss; it attaches a persistent {!Exec.Store} tier
    with {!characteristics_codec}. *)

(** {2 Persistent-tier codecs}

    Fixed-layout encodings for {!Exec.Store}: every float crosses the
    disk boundary as its IEEE-754 bits (hex), so a restarted daemon
    answers bit-identically to the cold compute.  Each carries a version
    tag ([chars/1], [sweep/1]); records written by a different layout
    decode as cache misses. *)

val characteristics_codec : characteristics Exec.Store.codec
val sweep_codec : sweep Exec.Store.codec
