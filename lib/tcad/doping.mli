(** Doping-profile combinators.  A profile maps (x, y) [m] to a density
    [m^-3]; donors and acceptors are kept separate and combined into a net
    doping N_D - N_A by the device structure. *)

type profile = x:float -> y:float -> float

val uniform : float -> profile

val sum : profile list -> profile

val gaussian2d :
  peak:float -> x0:float -> y0:float -> sigma_x:float -> sigma_y:float -> profile
(** A 2-D Gaussian pocket — the paper's halo model (Sec. 2.2, after
    refs [3][12]). *)

val source_drain :
  peak:float ->
  junction:float ->
  side:[ `Source | `Drain ] ->
  xj:float ->
  background:float ->
  lateral_sigma:float ->
  profile
(** Gaussian-rolloff source/drain well.  The lateral profile is flat at
    [peak] inside the well and rolls off with straggle [lateral_sigma],
    positioned so the surface profile crosses [background] exactly at
    [junction] — the surface metallurgical junction.  The vertical Gaussian
    is scaled so the profile falls to [background] at depth [xj]. *)
