(** Ring oscillator: an odd chain of FO1-loaded inverters closed into a
    loop.  Frequency measurement is the classic silicon-calibration workload
    for the delay metrics of Sec. 2.3.3. *)

type t = {
  circuit : Spice.Netlist.t;
  vdd_name : string;
  stage_nodes : int array;
  vdd : float;
  stages : int;
}

val build : ?sizing:Inverter.sizing -> ?stages:int -> Inverter.pair -> vdd:float -> t
(** [stages] must be odd (default 7). *)

val kick : t -> Spice.Mna.system -> Numerics.Vec.t
(** The metastable DC solution with the first stage nudged off balance — use
    as the transient's initial condition to start oscillation. *)

val oscillation_period :
  t -> Spice.Mna.system -> Spice.Transient.result -> float option
(** Period from the last two same-direction V_dd/2 crossings of stage 0
    (None until at least two full cycles are visible).  [result] must probe
    [Node t.stage_nodes.(0)]. *)
