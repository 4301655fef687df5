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
    than two items it *is* [List.map] (the pool, created on the first
    fan-out, is not touched), and nested calls — a mapped
    task that itself calls [map] — run sequentially instead of deadlocking
    or oversubscribing, so results never depend on nesting depth. *)

module Pool = Pool
module Memo = Memo
module Key = Key
module Store = Store

let default_jobs () =
  match Sys.getenv_opt "SUBSCALE_JOBS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let config_lock = Mutex.create ()
let configured_jobs = ref None
let shared_pool = ref None

let jobs () =
  Mutex.lock config_lock;
  let n =
    match !configured_jobs with
    | Some n -> n
    | None ->
      let n = default_jobs () in
      configured_jobs := Some n;
      n
  in
  Mutex.unlock config_lock;
  n

let set_jobs n =
  if n < 1 then invalid_arg "Exec.set_jobs: need at least one job";
  Mutex.lock config_lock;
  let old_pool =
    if !configured_jobs <> Some n then begin
      let p = !shared_pool in
      shared_pool := None;
      configured_jobs := Some n;
      p
    end
    else None
  in
  Mutex.unlock config_lock;
  Option.iter Pool.shutdown old_pool

let get_pool n =
  (* Pool.create spawns domains and can raise; Pool.shutdown joins them
     and can block.  Neither belongs inside the critical section: swap
     the pool reference under the lock, construct and tear down outside
     it. *)
  let stale = ref None in
  let pool =
    Mutex.protect config_lock (fun () ->
        match !shared_pool with
        | Some p when Pool.domains p = n -> p
        | (Some _ | None) as old ->
          let p = Pool.create ~domains:n in
          stale := old;
          shared_pool := Some p;
          p)
  in
  Option.iter Pool.shutdown !stale;
  pool

(* One fan-out at a time: a [map] issued while another is in flight (in
   particular from inside a mapped task) falls back to [List.map].  This
   keeps nesting deadlock-free and the domain count bounded at [jobs]. *)
let busy = Atomic.make false

(* Schedule perturbation (the [subscale audit --schedules] harness): with a
   seed installed, every fan-out executes its items in a deterministic
   pseudo-random permutation of the input order — in the pool (workers claim
   permuted indices) and in the sequential fallbacks alike.  Outputs must be
   bit-exact across seeds; a diff convicts hidden order dependence (shared
   mutable state, accumulation-order sensitivity) that order-preserving
   golden tests can never see. *)
let schedule_seed_ref = ref None

let set_schedule_seed s =
  Mutex.lock config_lock;
  schedule_seed_ref := s;
  Mutex.unlock config_lock

let schedule_seed () =
  Mutex.lock config_lock;
  let s = !schedule_seed_ref in
  Mutex.unlock config_lock;
  s

let permutation ~seed n =
  let st = Random.State.make [| 0x5ca1ab1e; seed; n |] in
  let a = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let seq_map_ordered order f arr =
  let results = Array.make (Array.length arr) None in
  Array.iter (fun i -> results.(i) <- Some (f arr.(i))) order;
  Array.to_list (Array.map Option.get results)

(* Spans wrap only the genuine fan-outs (the pool paths); the sequential
   fallbacks — one job, fewer than two items, nested maps — would flood
   the trace with List.map noise.  The counter makes the pool's cost
   visible: the shared pool is created on the first fan-out, so a process
   whose count stays 0 never spawned a worker domain. *)
let fanouts = Obs.Metrics.counter "exec.map.fanouts"

let fan_out ?order ~jobs:n xs f =
  Obs.Metrics.incr fanouts;
  Obs.Trace.with_span ~cat:"exec"
    ~attrs:[ ("items", Obs.Trace.I (List.length xs)); ("jobs", Obs.Trace.I n) ]
    "exec.map"
    (fun () -> Pool.map ?order (get_pool n) xs f)

let map f xs =
  let n = jobs () in
  match schedule_seed () with
  | None ->
    if n <= 1 || List.compare_length_with xs 2 < 0 then List.map f xs
    else if Atomic.compare_and_set busy false true then
      Fun.protect
        ~finally:(fun () -> Atomic.set busy false)
        (fun () -> fan_out ~jobs:n xs f)
    else List.map f xs
  | Some seed ->
    let arr = Array.of_list xs in
    let len = Array.length arr in
    if len <= 1 then List.map f xs
    else begin
      let order = permutation ~seed len in
      if n <= 1 then seq_map_ordered order f arr
      else if Atomic.compare_and_set busy false true then
        Fun.protect
          ~finally:(fun () -> Atomic.set busy false)
          (fun () -> fan_out ~order ~jobs:n xs f)
      else seq_map_ordered order f arr
    end

let map2 f xs ys =
  if List.length xs <> List.length ys then invalid_arg "Exec.map2: length mismatch";
  map (fun (x, y) -> f x y) (List.combine xs ys)

let map_array f arr = Array.of_list (map f (Array.to_list arr))
