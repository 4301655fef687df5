(** Subscale: reproduction of "Nanometer Device Scaling in Subthreshold
    Circuits" (Hanson, Seok, Sylvester, Blaauw — DAC 2007).

    This module is the library's front door: it re-exports the substrate
    libraries under one namespace and hosts the per-table/per-figure
    experiment drivers ({!Experiments}).

    Layer map (bottom-up):
    - {!Physics} / {!Numerics} — material models and numerical kernels;
    - {!Tcad} — the 2-D drift-diffusion device simulator (MEDICI stand-in);
    - {!Device} — calibrated compact MOSFET model (paper Eqs. 1-2);
    - {!Spice} / {!Circuits} — MNA circuit simulator and circuit generators;
    - {!Analysis} — VTC/SNM, delay (Eqs. 4-6), energy and V_min (Eqs. 7-8);
    - {!Scaling} — roadmap, generalized scaling (Table 1), the two
      scaling-strategy optimizers (Tables 2-3) and multi-V_th offerings;
    - {!Interconnect} — wire RC, Elmore estimates and repeater planning;
    - {!Sta} — cell characterization and static timing analysis;
    - {!Check} — pre-solver static analysis (deck DRC, physics validation,
      STA lint, non-finite guards) with structured diagnostics;
    - {!Exec} — the domain pool ({!Exec.Pool}) every sweep fans out
      through, the content-addressed memo tables ({!Exec.Memo}) that
      share device solves across experiments, and the persistent
      on-disk cache tier behind them ({!Exec.Store});
    - {!Serve} — the [subscale serve] daemon: line-delimited JSON
      queries over a socket, answered from the memo/store tiers;
    - {!Experiments} — one driver per table and figure. *)

module Physics = Physics
module Numerics = Numerics
module Exec = Exec
module Tcad = Tcad
module Device = Device
module Spice = Spice
module Circuits = Circuits
module Analysis = Analysis
module Scaling = Scaling
module Interconnect = Interconnect
module Sta = Sta
module Report = Report
module Check = Check
module Obs = Obs
module Serve = Serve
module Experiments = Experiments
