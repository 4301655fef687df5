(** The declarative seed of the UNT unit-inference pass: the unit-string
    grammar and the signature tables for the dimensioned surface of the
    model chain (Physics.Constants, Silicon, Mobility, parameter records,
    Tcad accessors).  Matching is by demangled path suffix, so crafted
    fixture modules of the same shape hit the same entries.  ROADMAP items
    3–5 extend these tables rather than the pass. *)

val parse : string -> (Dimension.t, string) result
(** Parse a unit string: atoms over [{m s V A K}] plus the derived units
    (C, F, J, W, S, Ohm, Hz, eV, dec) and display units (nm, um, cm, pA),
    combined with ['*'], ['/'] and [^int] exponents — e.g. "V/dec",
    "m^-3", "F/m^2", "m^2/V/s".  Display atoms tag the result with the
    original string. *)

type arg_spec = Pos of int | Lab of string
(** [Pos n]: the n-th [Nolabel] argument (0-based); [Lab l]: the argument
    labelled (or optionally labelled) [l]. *)

type fn_sig = { fn_args : (arg_spec * Dimension.t) list; fn_result : Dimension.t }

val constant : string -> Dimension.t option
(** Dimension of a zero-argument value, by demangled path suffix. *)

val function_sig : string -> fn_sig option
(** Signature of a seeded function, by demangled path suffix. *)

val field : record:string -> name:string -> Dimension.t option
(** Dimension of a float record field, by record-type path suffix and
    field name. *)

val container_round_trip : string -> bool
(** Is this a polymorphic container function the pass cannot follow
    (List.map, Array.fold_left, ...)?  UNT005's subject. *)
