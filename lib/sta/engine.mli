(** Static timing analysis: arrival-time and slew propagation over a
    combinational design against a characterized cell library, with
    critical-path extraction.

    Rise and fall arrivals are tracked separately through the negative-unate
    cells (an output-rise arrival comes from input-fall arrivals and vice
    versa).  Net loads are the sum of fanout input capacitances plus an
    optional per-net wire capacitance. *)

type edge = Rise | Fall

type arrival = {
  time : float;  (** latest arrival [s] *)
  slew : float;  (** slew accompanying that arrival [s] *)
}

type report = {
  arrivals_rise : arrival array;  (** per net *)
  arrivals_fall : arrival array;
  critical_time : float;  (** worst primary-output arrival [s] *)
  critical_output : Design.net;
  critical_edge : edge;
  critical_path : (Design.gate * edge) list;
      (** driver gates from the path's start to the critical output, with the
          output edge each contributes *)
}

val analyze : ?wire_cap:(Design.net -> float) -> Cell_lib.library -> Design.t -> report
(** Primary inputs switch with the library's fastest characterized slew;
    [wire_cap] (default none) adds capacitance per net; one inverter input
    loads each primary output.  Raises
    [Failure] if the design has no primary outputs or is not acyclic. *)
