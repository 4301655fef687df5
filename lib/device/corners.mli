(** Global process corners.

    Die-to-die variation is modeled the standard way: a rigid threshold
    shift per device polarity plus a mobility scale.  F(ast) means lower
    V_th and higher mobility.  The mixed corners (FS/SF) skew N against P —
    the ones that break ratioed circuits and shift inverter thresholds.

    Sub-V_th circuits feel corners exponentially (delay multiplies by
    e^{dVth/(m vT)}), which is why corner spread belongs next to the
    paper's variability warning. *)

type t = Tt | Ff | Ss | Fs | Sf

val all : t list

val name : t -> string

val apply : t -> Compact.t -> Compact.t
(** A corner-shifted copy of the device: threshold moved by a signed
    30 mV (a typical 3-sigma die-to-die budget) and mobility scaled by 1 +- 0.08 together (fast = low V_th + high
    mu). *)
