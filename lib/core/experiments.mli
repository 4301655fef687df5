(** One driver per table and figure of the paper's evaluation.  Each driver
    returns a rendered {!Report.Table.t} (and optionally ASCII plots); the
    bench harness and the CLI print them.

    Building a {!context} runs both scaling strategies once; every driver
    takes the same context so a full reproduction pays for the optimizer
    trajectories a single time. *)

type context

val make_context : ?with_130:bool -> unit -> context
(** Runs the super-V_th and sub-V_th optimizers over the roadmap (and the
    130 nm back-extrapolation when [with_130], needed by Fig. 12).  A
    reproduction starts here, so it first puts the calling domain on the
    task-sized minor heap ({!Exec.Pool.use_task_heap}), as a fan-out
    ({!Exec.map}) would at its first one: the domain keeps that heap for
    the rest of its life, drivers included, even at one job.  Other
    domains, and domains spawned later, keep theirs. *)

type output = { id : string; table : Report.Table.t; plots : string list }

val table1 : unit -> output
(** Generalized scaling factors (paper Table 1). *)

val table2 : context -> output
(** NFET parameters under super-V_th scaling, ours against the paper's. *)

val table3 : context -> output
(** NFET parameters under sub-V_th scaling, ours against the paper's. *)

val fig2 : context -> output
(** S_S and I_on/I_off at 250 mV vs node (super-V_th). *)

val fig3 : context -> output
(** I_on at nominal V_dd and at 250 mV vs node. *)

val fig4 : context -> output
(** Inverter SNM at nominal V_dd and 250 mV vs node. *)

val fig5 : ?measured:bool -> context -> output
(** FO1 inverter delay at nominal V_dd and 250 mV vs node.  With [measured]
    (default true) the 250 mV point is a transient measurement; the analytic
    Eq. 5 columns are always present. *)

val fig6 : context -> output
(** Energy/cycle and V_min of the 30-inverter chain (alpha = 0.1) under
    super-V_th scaling, with the C_L S_S^2 factor overlay. *)

val fig7 : unit -> output
(** S_S vs L_poly for the 45 nm device: fixed vs re-optimized doping. *)

val fig8 : unit -> output
(** Energy and delay factors vs L_poly for the 45 nm device. *)

val fig9 : context -> output
(** L_poly and S_S vs node for both strategies. *)

val fig10 : context -> output
(** Inverter SNM at 250 mV vs node for both strategies. *)

val fig11 : context -> output
(** Normalized FO1 delay at 250 mV for both strategies. *)

val fig12 : context -> output
(** Energy and V_min of the 30-inverter chain for both strategies
    (context must include the 130 nm node for the paper's V_min remark). *)

(** {2 Extensions}

    Studies the paper motivates but does not tabulate: each is built from
    the same substrates and calibration. *)

val ext_variability : context -> output
(** RDF mismatch: chain-delay sigma/mu against V_dd for the 90 nm and 32 nm
    super-V_th devices and the 32 nm sub-V_th device — quantifying the
    introduction's "timing variability grows dramatically as V_dd reduces",
    and the proposed strategy's variability advantage. *)

val ext_multi_vth : unit -> output
(** The Sec. 3 multiple-threshold offering at the 32 nm node: LVT/SVT/HVT
    variants under both strategies with their delay/leakage/energy trade. *)

val ext_bitline : context -> output
(** Sec. 2.3.2's SRAM constraint: maximum bits per bitline
    (I_on/I_off-limited) across nodes and strategies at 250 mV. *)

val ext_temperature : unit -> output
(** Subthreshold temperature sensitivity of the 90 nm device: S_S, I_off,
    V_min and chain energy from 250 K to 400 K (S_S is proportional to T —
    Eq. 2(a) — so every sub-V_th margin in the paper is implicitly a
    temperature statement). *)

val ext_datapath : context -> output
(** Gate-level workload: 8-bit ripple-carry adder carry delay and a
    DC-verified truth sample at 250 mV across nodes (super-V_th), showing
    the circuit layer scales beyond single gates. *)

val ext_interconnect : context -> output
(** Wire RC per node, the route length where wire delay overtakes gate
    delay at nominal and at 250 mV, and delay-optimal repeater counts —
    why interconnect design changes character in the sub-V_th regime. *)

val ext_sta : context -> output
(** Per-node NLDM cell characterization and static timing analysis of the
    8-bit adder, cross-checked against the transistor-level transient (the
    carry delay {!ext_datapath} reports, memoized so a run that has both
    simulates it once per node). *)

val ext_yield : context -> output
(** SRAM-style yield under RDF mismatch at 32 nm: SNM distributions, cell
    failure probability, and the 90 %-yield minimum supply for a 1 kb array
    under both strategies. *)

val ext_projection : unit -> output
(** Both strategies continued two generations past the paper (22/16 nm). *)

val ext_corners : context -> output
(** Global process corners (TT/FF/SS/FS/SF) at 250 mV: delay, leakage and
    switching-threshold spread — exponential in the sub-V_th regime, and
    smaller for the proposed strategy's lower slope factor. *)

val ext_pareto : context -> output
(** Energy-delay frontiers of the 30-stage chain at 32 nm: Pareto front,
    the EDP optimum, and iso-delay energy for both strategies. *)

(** {2 Registry}

    Every artefact above, once, in [subscale run everything] order: the
    paper's tables and figures first, then the extensions.  The CLI, the
    benchmark and the golden tests all dispatch through it. *)

type group = Paper | Extension

type experiment = {
  id : string;  (** the CLI id, e.g. ["fig5"] or ["ext-pareto"] *)
  group : group;
  run : measured:bool -> context Lazy.t -> output;
      (** Runs the driver.  Only drivers that read the context force it;
          [measured] is fig5's transient-delay switch, ignored elsewhere. *)
}

val registry : experiment list

val find : string -> experiment option

val context_for : experiment list -> context Lazy.t
(** A context built on first force, with the 130 nm node when fig12 is
    among the experiments. *)
