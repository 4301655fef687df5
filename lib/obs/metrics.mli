(** Process-wide metrics registry: counters and histograms.

    Always on (a counter is one atomic increment), domain-safe, and keyed
    by name with get-or-create semantics: [counter "x"] from two modules
    returns the same instrument.  Requesting an existing name with a
    different metric type raises [Invalid_argument].

    Naming convention: dotted lowercase paths, e.g.
    ["tcad.poisson.non_converged"], ["memo.scaling.evaluate.hits"]. *)

type counter
type histogram

type hist_stats = {
  count : int;
  sum : float;
  min : float;  (** [+inf] when empty *)
  max : float;  (** [-inf] when empty *)
  buckets : (float * int) list;  (** (inclusive upper bound, count) *)
  overflow : int;  (** observations above the last bound *)
}

type value = Counter of int | Gauge of float | Histogram of hist_stats
(** No instrument produces [Gauge]; the constructor stays so consumers
    that match on every case keep compiling. *)

val counter : string -> counter
val incr : ?by:int -> counter -> unit
val histogram : string -> histogram
(** Buckets at the inclusive upper bounds 1, 2, 5, 10, ... 1000 (suited to
    iteration counts and microsecond waits); an extra overflow bucket
    catches everything above the last. *)

val observe : histogram -> float -> unit
val snapshot : unit -> (string * value) list
(** Every registered metric with its current value, sorted by name. *)

val find : string -> value option

val reset : unit -> unit
(** Zero every registered metric (registrations survive).  Test harness
    use; resetting mid-run also zeroes the memo hit/miss mirrors. *)
