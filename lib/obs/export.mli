(** Trace and metrics rendering. *)

val write_chrome : path:string -> Trace.event list -> unit
(** Write Chrome [trace_event] JSON (the "JSON Array Format" with a
    [traceEvents] wrapper, plus the tracer's current dropped-event count)
    to [path]: spans as complete events ([ph:"X"], ts/dur in microseconds
    rebased to the first event), instants as [ph:"i"], the recording
    domain id as [tid].  Loadable in [chrome://tracing] and Perfetto.
    Non-finite attribute floats are rendered as strings so the output is
    always strictly valid JSON. *)

val span_summary : Trace.event list -> string
(** Per-(category, name) table: count, total, mean, max duration, sorted
    by total time descending; instant events counted below. *)

val metrics_summary : (string * Metrics.value) list -> string
(** One line per registered metric (pass [Metrics.snapshot ()]). *)

val gc_summary : Gc.stat -> string
(** Allocation and collection totals, one line each: minor, promoted and
    major words; minor and major collections; the top heap size in MB
    (pass [Gc.quick_stat ()]). *)
