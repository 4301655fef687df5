(** Determinism and memo-soundness rules — the second half of
    [subscale audit].

    A memo table is sound iff its key covers everything the cached
    computation reads.  Three independent mechanisms triangulate this:
    the static read-set/key cross-check and key-sensitivity differential
    ([AUD011]), the dynamic shadow-recompute audit of [Exec.Memo]
    ([AUD012]), and the schedule-perturbation replay harness ([AUD013]). *)

val cross_check :
  what:string -> covered:string list -> reads:string list -> Diagnostic.t list
(** One [AUD011] error per field in [reads] (a traced read-set, e.g. from
    [Device.Params.Trace.collect]) that is absent from [covered] (the
    field list the memo key encodes). *)

val key_sensitivity :
  what:string -> field:string -> base_key:string -> perturbed_key:string -> Diagnostic.t list
(** [AUD011] error if perturbing [field] left the key unchanged — the
    encoder drops or collapses the field, so two distinct inputs alias. *)

val perturb_physical : string -> Device.Params.physical -> Device.Params.physical
(** [perturb_physical field p] moves [field] (one of
    [Device.Params.physical_key_fields]) by a relative 1e-12; raises
    [Invalid_argument] on any other name. *)

val perturb_calibration :
  string -> Device.Params.calibration -> Device.Params.calibration
(** The same over [Device.Params.calibration_key_fields]. *)

val structure_key_sensitivity :
  key:(Tcad.Structure.t -> string) ->
  key_for:(?nx:int -> ?ny:int -> Tcad.Structure.description -> string) ->
  int * Diagnostic.t list
(** Perturbs each input of [Tcad.Structure.build] (every description
    field and nx/ny) from a 4x9 mesh, and returns the number of inputs
    with the [AUD011] errors: [key] or [key_for] unmoved although the
    built structure changed, or [key_for] differing from [key] of the
    structure built from the same request, at the base or any perturbed
    input.  The audit passes [Tcad.Structure.key] and [key_for]; tests
    pass mutants. *)

val of_violations : (string * string) list -> Diagnostic.t list
(** [AUD012] errors from [Exec.Memo.audit_violations ()] — one per
    [(table, key)] whose shadow recompute disagreed with the cache. *)

val schedule_mismatch : what:string -> seed:int -> Diagnostic.t
(** [AUD013]: a sweep's output was not bit-exact under the perturbed
    schedule with this seed. *)
