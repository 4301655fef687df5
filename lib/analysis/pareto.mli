(** Energy–delay trade-off curves.

    Sweeping V_dd traces each technology's energy/delay frontier; the
    minimum-energy point (V_min) anchors one end and nominal operation the
    other.  The classic comparisons — minimum energy-delay product, energy
    at iso-delay, delay at iso-energy — all read off this curve (refs
    [17][18]'s framing of the sub-V_th design space). *)

type point = {
  vdd : float;
  delay : float;  (** FO1 chain-stage delay (Eq. 5) [s] *)
  energy : float;  (** chain energy per cycle (Eq. 7) [J] *)
}

val curve : ?points:int -> Circuits.Inverter.pair -> lo:float -> hi:float -> point list
(** Sampled V_dd sweep (default 30 points) of the {!Energy.analytic}
    default chain (balanced sizing, 30 stages, alpha = 0.1). *)

val pareto_front : point list -> point list
(** The non-dominated subset (no other point is faster *and* cheaper),
    sorted by delay. *)

val min_edp : point list -> point
(** The energy-delay-product optimum.  Raises [Invalid_argument] on an
    empty curve. *)

val energy_at_delay : point list -> delay:float -> float option
(** Cheapest energy achieving at most the given delay, if the curve reaches
    it. *)
