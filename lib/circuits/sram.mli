(** 6T SRAM cell — the paper's Sec. 2.3.2 motivates SNM scaling with SRAM
    robustness (ref [16], a sub-200mV 6T SRAM).  The hold/read butterfly
    curves come from breaking the cross-coupled loop and sweeping each half
    cell. *)

type config = Hold | Read
(** Hold: access transistors off (wordline low).  Read: wordline high with
    both bitlines precharged at V_dd — the worst case for static noise
    margin. *)

type t = {
  pair : Inverter.pair;
  sizing : Inverter.sizing;  (** pull-down (wn) and pull-up (wp) widths *)
  w_access : float;  (** access (pass-gate) transistor width [m] *)
  vdd : float;
}

val make : ?beta:float -> Inverter.pair -> vdd:float -> t
(** [beta] is the cell ratio W_pulldown/W_access (default 1.5, a typical
    subthreshold-SRAM choice); pull-up and pull-down use the balanced
    sizing. *)

val butterfly :
  ?points:int -> t -> config -> Numerics.Vec.t * Numerics.Vec.t * Numerics.Vec.t
(** [(vin, vtc1, vtc2)] — the two (identical-device) half-cell curves with
    the second mirrored, ready for maximum-square SNM extraction.  A
    half-cell curve is the storage-node transfer curve: for each input
    (opposite storage node voltage) the solved output voltage.  In Read
    config the access transistor fights the pull-down, degrading the low
    level — the classic read-SNM loss. *)
