(** Exec: deterministic parallel execution and content-addressed
    memoization.

    - {!Pool} — a fixed-size domain pool whose [map] preserves input order
      and propagates exceptions exactly like [List.map];
    - {!Memo} — memo tables keyed by canonical content keys, with hit/miss
      accounting, used to share device characterizations across sweep
      points and across experiments;
    - {!Key} — the canonical (bit-exact) key encodings.

    The module also owns the process-wide parallelism configuration: the
    job count comes from [set_jobs] (the CLI's [--jobs]), else from the
    [SUBSCALE_JOBS] environment variable, else from
    [Domain.recommended_domain_count ()].  [map] is a drop-in for
    [List.map] that fans out over the shared pool; with one job or fewer
    than two items it {e is} [List.map] (the pool, created on the first
    fan-out, is not touched), and nested calls — a mapped
    task that itself calls [map] — run sequentially instead of
    deadlocking or oversubscribing, so results never depend on nesting
    depth. *)

module Pool = Pool
module Memo = Memo
module Key = Key
module Store = Store

val jobs : unit -> int
(** The configured fan-out width (resolving the default on first use). *)

val set_jobs : int -> unit
(** Override the job count; shuts down any previously sized pool. *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** Drop-in parallel [List.map]; order-preserving, exception-faithful.
    Each fan-out over the pool counts once in the [exec.map.fanouts]
    metric.  The caller runs tasks beside the workers, so a fan-out first
    puts it on their task-sized minor heap ({!Pool.use_task_heap}), where
    it stays; the sequential paths (one job, fewer than two items, a map
    nested in a fan-out) leave the caller's heap as it is. *)

val map2 : ('a -> 'b -> 'c) -> 'a list -> 'b list -> 'c list
val map_array : ('a -> 'b) -> 'a array -> 'b array

(** {2 Schedule perturbation}

    With a seed installed, every [map] executes its items in a
    deterministic pseudo-random permutation of the input order — inside
    the pool (workers claim permuted indices) and in the sequential
    fallbacks alike.  Outputs must be bit-exact across seeds; a diff
    convicts hidden order dependence (shared mutable state,
    accumulation-order sensitivity) that order-preserving golden tests
    can never see.  [subscale audit --schedules N] sweeps N seeds. *)

val set_schedule_seed : int option -> unit
(** [Some seed] perturbs every subsequent [map]; [None] restores the
    natural ascending order. *)
