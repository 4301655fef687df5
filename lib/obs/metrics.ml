(* Process-wide metrics registry: counters and histograms.

   Unlike the tracer, metrics are always on — a counter bump is one atomic
   increment and a histogram observation is a short bucket scan plus a
   mutex-protected accumulate, both negligible next to the solves they
   instrument.  The registry is keyed by name with get-or-create semantics,
   so independent modules (and repeated table constructions in tests) share
   one instrument per name instead of shadowing each other.

   The Exec.Memo hit/miss accounting reports through this registry
   (counters "memo.<table>.hits"/"memo.<table>.misses"), and every solver
   non-convergence exit bumps a "<solver>.non_converged" counter — which is
   what makes a silently-stalling solver visible in the profile and
   grep-able in CI. *)

type counter = { c_count : int Atomic.t }

type histogram = {
  buckets : int Atomic.t array;  (* length bounds + 1; last is overflow *)
  h_lock : Mutex.t;  (* guards the moment accumulators below *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type hist_stats = {
  count : int;
  sum : float;
  min : float;  (* +inf when empty *)
  max : float;  (* -inf when empty *)
  buckets : (float * int) list;  (* (upper bound, count) *)
  overflow : int;
}

type value = Counter of int | Gauge of float | Histogram of hist_stats

type metric = M_counter of counter | M_histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let get_or_create name make describe =
  (* [make] is caller-supplied; Mutex.protect keeps an exception in it
     from leaking the registry lock. *)
  let m =
    Mutex.protect registry_lock (fun () ->
        match Hashtbl.find_opt registry name with
        | Some m -> m
        | None ->
          let m = make () in
          Hashtbl.add registry name m;
          m)
  in
  match describe m with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Obs.Metrics: %S already registered with another type" name)

let counter name =
  get_or_create name
    (fun () -> M_counter { c_count = Atomic.make 0 })
    (function M_counter c -> Some c | M_histogram _ -> None)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.c_count by : int)

(* Upper bucket bounds shared by every histogram, strictly increasing:
   suited to iteration counts and microsecond-scale waits alike. *)
let bounds = [| 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0; 1000.0 |]

let histogram name =
  get_or_create name
    (fun () ->
      M_histogram
        {
          buckets = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
          h_lock = Mutex.create ();
          h_count = 0;
          h_sum = 0.0;
          h_min = infinity;
          h_max = neg_infinity;
        })
    (function M_histogram h -> Some h | M_counter _ -> None)

let observe (h : histogram) v =
  let n = Array.length bounds in
  let rec bucket i = if i >= n || v <= bounds.(i) then i else bucket (i + 1) in
  ignore (Atomic.fetch_and_add h.buckets.(bucket 0) 1 : int);
  Mutex.lock h.h_lock;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  Mutex.unlock h.h_lock

let hist_stats (h : histogram) =
  Mutex.lock h.h_lock;
  let count = h.h_count and sum = h.h_sum and min = h.h_min and max = h.h_max in
  Mutex.unlock h.h_lock;
  let n = Array.length bounds in
  {
    count;
    sum;
    min;
    max;
    buckets = Array.to_list (Array.init n (fun i -> (bounds.(i), Atomic.get h.buckets.(i))));
    overflow = Atomic.get h.buckets.(n);
  }

let reset_histogram h =
  Mutex.lock h.h_lock;
  h.h_count <- 0;
  h.h_sum <- 0.0;
  h.h_min <- infinity;
  h.h_max <- neg_infinity;
  Mutex.unlock h.h_lock;
  Array.iter (fun b -> Atomic.set b 0) h.buckets

let value_of = function
  | M_counter c -> Counter (Atomic.get c.c_count)
  | M_histogram h -> Histogram (hist_stats h)

let snapshot () =
  Mutex.lock registry_lock;
  let entries = Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [] in
  Mutex.unlock registry_lock;
  entries
  |> List.map (fun (name, m) -> (name, value_of m))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find name =
  Mutex.lock registry_lock;
  let m = Hashtbl.find_opt registry name in
  Mutex.unlock registry_lock;
  Option.map value_of m

let reset () =
  Mutex.lock registry_lock;
  let metrics = Hashtbl.fold (fun _ m acc -> m :: acc) registry [] in
  Mutex.unlock registry_lock;
  List.iter
    (function
      | M_counter c -> Atomic.set c.c_count 0
      | M_histogram h -> reset_histogram h)
    metrics
