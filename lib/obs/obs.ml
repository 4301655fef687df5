(** Obs: zero-dependency observability for the solver stack.

    - {!Trace} — a span tracer (near-zero overhead when disabled, Chrome
      [trace_event] JSON export);
    - {!Metrics} — an always-on process-wide registry of counters and
      histograms (solver iterations, memo hit/miss, pool queue waits);
    - {!Export} — the JSON writer and the summary tables.

    The contract that makes this safe to leave compiled into every hot
    path: observation never feeds back into computation.  No memo key, no
    pool schedule and no numeric result depends on whether tracing is on
    (DESIGN.md, "Observability"). *)

module Trace = Trace
module Metrics = Metrics
module Export = Export

(* The one structured event every solver emits when it exits without
   meeting its tolerance: a "<solver>.non_converged" counter bump (always)
   plus an instant trace event (when tracing).  CI greps the trace for
   [non_converged]; the profile prints the counters. *)
let non_converged ~solver ?(attrs = []) detail =
  Metrics.incr (Metrics.counter (solver ^ ".non_converged"));
  Trace.instant ~cat:solver ~attrs:(("detail", Trace.S detail) :: attrs) "non_converged"

let non_converged_counters () =
  List.filter_map
    (fun (name, v) ->
      match v with
      | Metrics.Counter n
        when n > 0
             && String.length name > 14
             && String.sub name (String.length name - 14) 14 = ".non_converged" -> Some (name, n)
      | Metrics.Counter _ | Metrics.Gauge _ | Metrics.Histogram _ -> None)
    (Metrics.snapshot ())

(* --- process wiring: --trace FILE / --profile / SUBSCALE_TRACE ------- *)

let trace_path = ref None
let profile_requested = ref false
let exit_hook_installed = ref false
let config_lock = Mutex.create ()

let profile_report () =
  String.concat ""
    [ "--- obs: span summary -----------------------------------\n";
      Export.span_summary (Trace.events ());
      "--- obs: metrics ----------------------------------------\n";
      Export.metrics_summary (Metrics.snapshot ());
      "--- obs: gc ---------------------------------------------\n";
      Export.gc_summary (Gc.quick_stat ()) ]

(* Write the trace file / print the profile; registered via [at_exit] by
   [set_trace_file] and [enable_profile]. *)
let flush () =
  (match !trace_path with
   | Some path -> Export.write_chrome ~path (Trace.events ())
   | None -> ());
  if !profile_requested then begin
    prerr_string (profile_report ());
    flush stderr
  end

let install_exit_hook () =
  Mutex.lock config_lock;
  let fresh = not !exit_hook_installed in
  exit_hook_installed := true;
  Mutex.unlock config_lock;
  if fresh then at_exit flush

let set_trace_file path =
  Trace.enable ();
  trace_path := Some path;
  install_exit_hook ()

let enable_profile () =
  Trace.enable ();
  profile_requested := true;
  install_exit_hook ()

let init_from_env () =
  match Sys.getenv_opt "SUBSCALE_TRACE" with
  | Some path when String.trim path <> "" -> set_trace_file (String.trim path)
  | Some _ | None -> ()
