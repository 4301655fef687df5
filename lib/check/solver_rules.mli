(** Solver-convergence rules ([solver-non-converged]).

    [Tcad.Poisson.solve] reports failure through a [converged] flag that a
    careless caller could ignore; {!check_poisson} converts that flag into
    a diagnostic, and {!scan_metrics} audits the obs metrics registry after
    a run so every non-convergence — wherever it happened — surfaces as a
    named rule violation. *)

val check_poisson : Tcad.Poisson.solution -> Diagnostic.t list
(** Empty when the solution converged; one [solver-non-converged] error
    (with iteration count and residual) otherwise. *)

val scan_metrics : ?prefix:string -> unit -> Diagnostic.t list
(** One [solver-non-converged] error per positive ["*.non_converged"] obs
    counter.  [prefix] restricts the scan (e.g. ["tcad."]) — tests use it
    to ignore counters accumulated by unrelated suites in the same
    process. *)
