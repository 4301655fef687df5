(** Obs: tracing and metrics for the solver stack (see {!Trace},
    {!Metrics}, {!Export}).  Observation never feeds back into
    computation: results are bit-identical with tracing on or off. *)

module Trace = Trace
module Metrics = Metrics
module Export = Export

val non_converged :
  solver:string -> ?attrs:(string * Trace.attr) list -> string -> unit
(** [non_converged ~solver detail] is the canonical non-convergence exit
    event: bumps the ["<solver>.non_converged"] counter (always) and emits
    an instant ["non_converged"] trace event with a ["detail"] attribute
    (when tracing).  Every solver fallback path calls this, so a stalled
    solve is visible in the profile, the trace and CI — never silent. *)

val non_converged_counters : unit -> (string * int) list
(** Every ["*.non_converged"] counter with a positive count — the
    post-run convergence health check. *)

val profile_report : unit -> string
(** What [--profile] prints at exit: the span summary, the metrics
    registry and a ["--- obs: gc ---"] section of {!Export.gc_summary}
    over [Gc.quick_stat ()], so a memory regression shows which run
    caused it. *)

val set_trace_file : string -> unit
(** Enable tracing and write a Chrome trace to the path at process exit
    (the CLI's [--trace FILE]). *)

val enable_profile : unit -> unit
(** Enable tracing and print a span summary plus the metrics registry to
    stderr at process exit (the CLI's [--profile]). *)

val init_from_env : unit -> unit
(** Honour [SUBSCALE_TRACE=FILE]: when set and non-empty, behaves like
    {!set_trace_file}. *)
