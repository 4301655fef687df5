(** LNT002 (float discipline), LNT003 (exception hygiene), LNT005
    (output hygiene) and LNT006 (generic ordering) in one typedtree walk.

    [exempt_output] disables LNT005 for the sanctioned output layers
    (lib/report, lib/obs). *)

val check :
  source:string -> exempt_output:bool -> Typedtree.structure -> Check.Diagnostic.t list
