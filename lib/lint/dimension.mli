(** The dimension lattice behind the UNT unit-inference pass.

    Rational-exponent abelian group over the base quantities
    [{m, s, V, A, K}], plus two abstract elements: [Unknown] (inference
    gave up — absorbing, never fires) and [Const] (a numeric literal —
    dimension-polymorphic, adopts the other operand).  A dimension also
    carries a scale tag separating SI-internal values from display-unit
    conversions (nm, um, cm^-3 ...), which is what UNT003 checks. *)

type rat = private { num : int; den : int }
(** Exact rational, normalized: positive denominator, lowest terms. *)

val rat : int -> int -> rat
(** [rat num den] — raises [Invalid_argument] on a zero denominator. *)

val rat_of_int : int -> rat
type scale = Si | Display of string
(** [Display u] tags a value produced by an explicit display-unit
    conversion ([u] is the unit string, e.g. "nm"). *)

type dim = { m : rat; s : rat; v : rat; a : rat; k : rat; scale : scale }

type t = Unknown | Const | Dim of dim

val dimensionless : t
val base : [ `M | `S | `V | `A | `K ] -> t

val is_dimensionless : t -> bool
(** True only for [Dim] with all-zero exponents ([Unknown]/[Const] are not
    provably dimensionless). *)

val equal_exponents : dim -> dim -> bool

val scale_conflict : dim -> dim -> bool
(** Do the two scale tags clash (SI vs display, or two different display
    units)? *)

val scale_label : scale -> string

val mul : t -> t -> t
val div : t -> t -> t
val inv : t -> t
val pow : t -> rat -> t
val sqrt_ : t -> t

val to_string : t -> string
(** "m^2*V/s"-style rendering; display-tagged dims append their unit. *)

type combination =
  | Ok_dim of t
  | Mismatch of dim * dim  (** incompatible exponents — UNT001 *)
  | Scale_mix of dim * dim  (** same exponents, conflicting scales — UNT003 *)

val add : t -> t -> combination
(** Additive/comparison combination judgment: [Unknown] and [Const]
    always combine (adopting the other operand's dimension), two [Dim]s
    must agree in exponents and scale. *)

val join : t -> t -> t
(** Branch join (if/match arms): agreement propagates, anything else
    degrades silently to [Unknown]. *)
