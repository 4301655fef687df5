(** Span-based tracer with string names and typed attributes.

    Disabled (the default), every entry point is a single atomic flag load,
    so instrumentation can live on solver hot paths.  Enabled, spans record
    (name, category, start, duration, domain id, attributes) into a bounded
    process-wide buffer that {!Export} renders as Chrome [trace_event] JSON
    or a summary table.

    Tracing is strictly observational: it never perturbs memo keys, pool
    schedules or numeric results (see DESIGN.md, "Observability"). *)

type attr = F of float | I of int | S of string | B of bool

type event =
  | Complete of {
      name : string;
      cat : string;
      ts : float;  (** span start, seconds on {!now}'s clock *)
      dur : float;  (** seconds *)
      tid : int;  (** id of the recording domain *)
      attrs : (string * attr) list;
    }
  | Instant of {
      name : string;
      cat : string;
      ts : float;
      tid : int;
      attrs : (string * attr) list;
    }

val now : unit -> float
(** Seconds on a monotonic clock (CLOCK_MONOTONIC) from an arbitrary
    origin: only differences of two readings mean anything, and a wall
    clock step never makes one negative. *)

val enabled : unit -> bool
val enable : unit -> unit
val with_tracing : (unit -> 'a) -> 'a
(** Run [f] with tracing enabled, restoring the previous state after. *)

type span

val with_span : ?cat:string -> ?attrs:(string * attr) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] wraps [f] in a span.  An escaping exception still
    closes the span (with a ["raised"] attribute) and is re-raised. *)

val instant : ?cat:string -> ?attrs:(string * attr) list -> string -> unit
(** Record a point event — e.g. a solver's [non_converged] exit. *)

val events : unit -> event list
(** Everything recorded so far, in record order. *)

val dropped : unit -> int
(** Events discarded because the buffer hit its capacity. *)

val clear : unit -> unit

val set_capacity : int -> unit
(** Buffer bound (default 1e6 events); overflow increments {!dropped}
    rather than growing without bound. *)
