(* Content-addressed memoization with hit/miss accounting.

   A table maps a canonical key (built with {!Key}) to a computed value.
   Tables are safe to query from any domain: lookups and insertions hold a
   per-table mutex, but the user computation runs outside it, so two
   domains that miss the same key concurrently both compute — the first
   insertion wins and, because memoized functions must be pure, the values
   are identical, so results stay deterministic either way.

   Every table registers itself in a process-wide registry so the test
   harness can reset the world ([clear_all]) and the bench can report
   cache effectiveness ([stats]).  The registry is keyed by table name:
   re-creating a table replaces its entry rather than pinning the dropped
   table forever through its closures, so a daemon that builds scoped
   tables holds the registry at a constant size.

   Audit mode ([with_audit]) turns every cache hit into a
   shadow recompute: the memoized thunk runs again and its fresh value is
   compared against the cached one with the table's equality.  A mismatch
   means the key failed to capture an input the computation depends on —
   the stale-cache hazard the memo pass of [subscale audit] reports as
   AUD012.  The cached value is still returned, so behaviour under audit
   differs only in time. *)

type stats = {
  name : string;
  hits : int;
  misses : int;
  size : int;
  store_hits : int;
}

(* The persistent tier, attached after creation so the store handle's
   lifetime (open/close) stays with the daemon, not the table. *)
type 'a tier = { store : Store.t; codec : 'a Store.codec }

type 'a t = {
  name : string;
  tbl : (string, 'a) Hashtbl.t;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable store_hits : int;
  mutable store : 'a tier option;
  (* Process-wide mirrors of the per-table counts above.  Two tables
     created with the same name share one mirror (the obs registry is
     keyed by name), so the per-table fields — which tests reset between
     cases — remain the source of truth for [stats]. *)
  obs_hits : Obs.Metrics.counter;
  obs_misses : Obs.Metrics.counter;
}

(* Structural equality via the polymorphic total order, except values
   containing functional components (e.g. closures captured in result
   records) compare as equal — the audit cannot inspect them, and
   flagging every such hit would drown the signal.  [compare] rather
   than [=] because [compare nan nan = 0] while [nan = nan] is false: a
   cached NaN sentinel must match its bit-identical shadow recompute
   instead of firing a spurious AUD012. *)
let audit_equal a b = try compare a b = 0 with Invalid_argument _ -> true

type reg_entry = { clear_fn : unit -> unit; stats_fn : unit -> stats }

let registry : (string, reg_entry) Hashtbl.t = Hashtbl.create 32
let registry_lock = Mutex.create ()

let registry_size () =
  Mutex.lock registry_lock;
  let n = Hashtbl.length registry in
  Mutex.unlock registry_lock;
  n

(* Scoped bypass: while the depth is positive, [find_or_compute] neither
   reads nor writes any table.  Used by benches that must time the raw
   solve, not a cache hit. *)
let disabled_depth = Atomic.make 0

let disabled f =
  Atomic.incr disabled_depth;
  Fun.protect ~finally:(fun () -> Atomic.decr disabled_depth) f

let enabled () = Atomic.get disabled_depth = 0

(* Audit mode: shadow-recompute on every hit, record mismatches.  The
   violation list is bounded — a daemon with a bad key would otherwise
   accumulate one entry per hit for the life of the process; mismatches
   beyond the cap are dropped. *)
let audit_mode = Atomic.make false
let max_violations = 256
let violations : (string * string) list ref = ref []
let violations_count = ref 0
let violations_lock = Mutex.create ()

let audit_violations () =
  Mutex.lock violations_lock;
  let v = List.rev !violations in
  Mutex.unlock violations_lock;
  v

let clear_audit_violations () =
  Mutex.lock violations_lock;
  violations := [];
  violations_count := 0;
  Mutex.unlock violations_lock

let with_audit f =
  Atomic.set audit_mode true;
  Fun.protect ~finally:(fun () -> Atomic.set audit_mode false) f

let record_violation name key =
  Mutex.lock violations_lock;
  if !violations_count < max_violations then begin
    violations := (name, key) :: !violations;
    incr violations_count
  end;
  Mutex.unlock violations_lock

let create ~name () =
  let t =
    {
      name;
      tbl = Hashtbl.create 64;
      lock = Mutex.create ();
      hits = 0;
      misses = 0;
      store_hits = 0;
      store = None;
      obs_hits = Obs.Metrics.counter ("memo." ^ name ^ ".hits");
      obs_misses = Obs.Metrics.counter ("memo." ^ name ^ ".misses");
    }
  in
  let clear_fn () =
    Mutex.lock t.lock;
    Hashtbl.reset t.tbl;
    t.hits <- 0;
    t.misses <- 0;
    t.store_hits <- 0;
    Mutex.unlock t.lock
  in
  let stats_fn () =
    Mutex.lock t.lock;
    let s =
      {
        name = t.name;
        hits = t.hits;
        misses = t.misses;
        size = Hashtbl.length t.tbl;
        store_hits = t.store_hits;
      }
    in
    Mutex.unlock t.lock;
    s
  in
  Mutex.lock registry_lock;
  (* Hashtbl.replace, not add: a re-created table takes over its name's
     slot, releasing the dropped table's closures (and the Hashtbl they
     pin) to the GC, and keeping [stats ()] one-row-per-name. *)
  Hashtbl.replace registry name { clear_fn; stats_fn };
  Mutex.unlock registry_lock;
  t

let attach_store t ~store ~codec =
  Mutex.lock t.lock;
  t.store <- Some { store; codec };
  Mutex.unlock t.lock

let detach_store t =
  Mutex.lock t.lock;
  t.store <- None;
  Mutex.unlock t.lock

(* Persistent-tier lookup on memo miss.  Decode failures (format skew,
   truncated payload) are misses, never errors: the worst outcome of a
   bad cache file is a recompute. *)
let store_find : type a. a t -> a tier -> key:string -> a option =
 fun t tier ~key ->
  match Store.find tier.store ~name:t.name ~key with
  | None -> None
  | Some payload -> tier.codec.Store.decode payload

(* Memory, then the persistent tier.  A hit counts as a hit or a store
   hit (a store hit also fills memory); a miss counts nothing — only the
   compute step that follows it does. *)
let find t ~key =
  if not (enabled ()) then None
  else begin
    Mutex.lock t.lock;
    match Hashtbl.find_opt t.tbl key with
    | Some v ->
      t.hits <- t.hits + 1;
      Mutex.unlock t.lock;
      Obs.Metrics.incr t.obs_hits;
      Some v
    | None -> (
      let tier = t.store in
      Mutex.unlock t.lock;
      match Option.bind tier (fun tier -> store_find t tier ~key) with
      | Some v ->
        Mutex.lock t.lock;
        t.store_hits <- t.store_hits + 1;
        if not (Hashtbl.mem t.tbl key) then Hashtbl.add t.tbl key v;
        Mutex.unlock t.lock;
        Obs.Metrics.incr t.obs_hits;
        Some v
      | None -> None)
  end

let compute t ~key f =
  if not (enabled ()) then f ()
  else begin
    Mutex.lock t.lock;
    t.misses <- t.misses + 1;
    let tier = t.store in
    Mutex.unlock t.lock;
    Obs.Metrics.incr t.obs_misses;
    (* A span per miss shows where compute time actually goes; hits are
       counter-only — a span per hit would flood the trace buffer. *)
    let v = Obs.Trace.with_span ~cat:"memo" ("memo." ^ t.name) f in
    Mutex.lock t.lock;
    if not (Hashtbl.mem t.tbl key) then Hashtbl.add t.tbl key v;
    Mutex.unlock t.lock;
    (match tier with
    | Some tier -> Store.add tier.store ~name:t.name ~key (tier.codec.Store.encode v)
    | None -> ());
    v
  end

let find_or_compute t ~key f =
  match find t ~key with
  | Some v ->
    if Atomic.get audit_mode then begin
      let fresh = f () in
      if not (audit_equal v fresh) then record_violation t.name key
    end;
    v
  | None -> compute t ~key f

let hits t =
  Mutex.lock t.lock;
  let h = t.hits in
  Mutex.unlock t.lock;
  h

let misses t =
  Mutex.lock t.lock;
  let m = t.misses in
  Mutex.unlock t.lock;
  m

let store_hits t =
  Mutex.lock t.lock;
  let h = t.store_hits in
  Mutex.unlock t.lock;
  h

let size t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.tbl in
  Mutex.unlock t.lock;
  n

let clear t =
  Mutex.lock t.lock;
  Hashtbl.reset t.tbl;
  t.hits <- 0;
  t.misses <- 0;
  t.store_hits <- 0;
  Mutex.unlock t.lock

let clear_all () =
  Mutex.lock registry_lock;
  let clears = Hashtbl.fold (fun _ e acc -> e.clear_fn :: acc) registry [] in
  Mutex.unlock registry_lock;
  List.iter (fun clear -> clear ()) clears

let stats () =
  Mutex.lock registry_lock;
  let fns = Hashtbl.fold (fun _ e acc -> e.stats_fn :: acc) registry [] in
  Mutex.unlock registry_lock;
  List.sort
    (fun (a : stats) (b : stats) -> compare a.name b.name)
    (List.map (fun f -> f ()) fns)
