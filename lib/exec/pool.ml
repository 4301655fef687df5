(* A fixed-size pool of OCaml 5 domains with a deterministic,
   order-preserving [map].

   Scheduling is self-service over a shared bag: each call to [map]
   publishes one job (an array of indexed items); every worker — and the
   calling domain itself — repeatedly steals the next unclaimed index with
   a single atomic fetch-and-add and writes its result into a dedicated
   slot.  Because every item owns a slot, the output order is the input
   order no matter which domain ran what, and a run with N domains is
   observationally identical to [List.map].

   A [map ?order] caller can supply a permutation of the item indices:
   claim slot [i] then executes item [order.(i)].  Because results land in
   per-item slots, the output is identical for every permutation — the
   schedule-perturbation audit exploits exactly this to shake out hidden
   order dependence.

   Exception protocol: a raising task stops the distribution of further
   indices, every already-claimed item still completes, and [map] re-raises
   the exception of the *lowest* raising index — exactly the one a
   sequential [List.map] would have raised (indices are claimed in
   ascending order, so every index below a recorded raiser also ran).  The
   pool itself survives: the job is unpublished and the workers return to
   the idle queue, so the next [map] on the same pool works normally. *)

type job = {
  id : int;
  run : int -> unit;  (* executes item [i]; must never raise *)
  n : int;
  next : int Atomic.t;  (* next unclaimed index *)
  stop : bool Atomic.t;  (* a task raised: stop claiming new indices *)
  mutable inside : int;  (* workers currently executing this job's items *)
  published : float;  (* publish timestamp; 0.0 unless tracing *)
}

(* Queue-wait observations need a clock, so they are taken only while
   tracing is on — the disabled-path cost of a [map] stays two atomic
   reads.  Observation never affects claiming order or results. *)
let queue_wait_hist = Obs.Metrics.histogram "exec.pool.queue_wait_us"

let note_queue_wait job =
  if Obs.Trace.enabled () && job.published > 0.0 then
    Obs.Metrics.observe queue_wait_hist ((Obs.Trace.now () -. job.published) *. 1e6)

type t = {
  domains : int;
  mutex : Mutex.t;
  work_ready : Condition.t;  (* workers sleep here between jobs *)
  quiet : Condition.t;  (* the caller sleeps here until stragglers finish *)
  mutable current : job option;
  mutable next_id : int;
  mutable shutdown : bool;
  mutable workers : unit Domain.t list;
}

let run_items job =
  let rec loop () =
    if not (Atomic.get job.stop) then begin
      let i = Atomic.fetch_and_add job.next 1 in
      if i < job.n then begin
        job.run i;
        loop ()
      end
    end
  in
  loop ()

(* Workers remember the id of the job they last worked on so that a still-
   published job is never re-entered (re-entering would be harmless but
   would spin: every claim attempt finds the bag empty). *)
let rec worker_loop pool last_id =
  Mutex.lock pool.mutex;
  let rec await () =
    if pool.shutdown then None
    else
      match pool.current with
      | Some job when job.id <> last_id ->
        job.inside <- job.inside + 1;
        Some job
      | Some _ | None ->
        Condition.wait pool.work_ready pool.mutex;
        await ()
  in
  match await () with
  | None -> Mutex.unlock pool.mutex
  | Some job ->
    Mutex.unlock pool.mutex;
    note_queue_wait job;
    Obs.Trace.with_span ~cat:"pool"
      ~attrs:[ ("job", Obs.Trace.I job.id) ]
      "pool.worker"
      (fun () -> run_items job);
    Mutex.lock pool.mutex;
    job.inside <- job.inside - 1;
    if job.inside = 0 then Condition.broadcast pool.quiet;
    Mutex.unlock pool.mutex;
    worker_loop pool job.id

(* A worker's minor heap, in words: 32k words is 256 KB, about an L2
   cache, against the runtime's default of 256k words (2 MB, all of it
   resident once the allocation pointer has swept it).  A worker only
   ever holds one task's temporaries, and a fanned-out task (a
   Monte-Carlo trial, a device characterization) keeps little alive, so
   the smaller heap costs only collections: a task that allocates more
   than 256 KB now triggers more minor collections, and in OCaml 5 every
   minor collection stops all domains.  Minor heaps are sized per domain,
   so [Gc.set] in a worker leaves the calling domain's heap, which may
   hold a whole driver's working set, at its size. *)
let task_minor_heap_words = 32 * 1024

let spawn_worker pool =
  Domain.spawn (fun () ->
      Gc.set { (Gc.get ()) with Gc.minor_heap_size = task_minor_heap_words };
      worker_loop pool 0)

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: need at least one domain";
  let pool =
    {
      domains;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      quiet = Condition.create ();
      current = None;
      next_id = 1;
      shutdown = false;
      workers = [];
    }
  in
  (* The caller participates in every [map], so [domains] total lanes need
     only [domains - 1] spawned worker domains — and [~domains:1] spawns
     none at all: the pool degenerates to a pure-sequential [List.map]. *)
  pool.workers <- List.init (domains - 1) (fun _ -> spawn_worker pool);
  pool

let domains pool = pool.domains
let spawned pool = List.length pool.workers

let ordered_seq_map order f arr =
  let results = Array.make (Array.length arr) None in
  Array.iter (fun i -> results.(i) <- Some (f arr.(i))) order;
  Array.to_list (Array.map Option.get results)

let check_order ~n = function
  | None -> ()
  | Some o ->
    if Array.length o <> n then invalid_arg "Pool.map: order length mismatch";
    let seen = Array.make n false in
    Array.iter
      (fun i ->
        if i < 0 || i >= n || seen.(i) then invalid_arg "Pool.map: order is not a permutation";
        seen.(i) <- true)
      o

let map ?order pool xs f =
  let dead =
    Mutex.lock pool.mutex;
    let d = pool.shutdown in
    Mutex.unlock pool.mutex;
    d
  in
  if dead then invalid_arg "Pool.map: pool is shut down";
  check_order ~n:(List.length xs) order;
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when pool.domains = 1 ->
    (match order with
     | None -> List.map f xs
     | Some o -> ordered_seq_map o f (Array.of_list xs))
  | _ ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let results = Array.make n None in
    let errors = Array.make n None in
    let stop = Atomic.make false in
    let item = match order with None -> fun i -> i | Some o -> fun i -> o.(i) in
    let run slot =
      let i = item slot in
      match f arr.(i) with
      | v -> results.(i) <- Some v
      | exception e ->
        errors.(i) <- Some e;
        Atomic.set stop true
    in
    Mutex.lock pool.mutex;
    if pool.shutdown then begin
      Mutex.unlock pool.mutex;
      invalid_arg "Pool.map: pool is shut down"
    end;
    if pool.current <> None then begin
      Mutex.unlock pool.mutex;
      invalid_arg "Pool.map: a job is already running on this pool"
    end;
    let published = if Obs.Trace.enabled () then Obs.Trace.now () else 0.0 in
    let job = { id = pool.next_id; run; n; next = Atomic.make 0; stop; inside = 0; published } in
    pool.next_id <- pool.next_id + 1;
    pool.current <- Some job;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.mutex;
    Obs.Trace.with_span ~cat:"pool"
      ~attrs:[ ("job", Obs.Trace.I job.id); ("items", Obs.Trace.I n) ]
      "pool.map"
      (fun () -> run_items job);
    Mutex.lock pool.mutex;
    (* Unpublish before waiting: no worker can join past this point, so
       [inside] only decreases and the wait below terminates. *)
    pool.current <- None;
    while job.inside > 0 do
      Condition.wait pool.quiet pool.mutex
    done;
    Mutex.unlock pool.mutex;
    let first_error = Array.fold_left (fun acc e -> match acc with Some _ -> acc | None -> e) None errors in
    (match first_error with
     | Some e -> raise e
     | None -> Array.to_list (Array.map Option.get results))

let shutdown pool =
  Mutex.lock pool.mutex;
  let already = pool.shutdown in
  pool.shutdown <- true;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.mutex;
  if not already then begin
    List.iter Domain.join pool.workers;
    pool.workers <- []
  end
