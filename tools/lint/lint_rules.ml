(* The LNT rule family: ids minted through the process-wide Check.Rules
   registry (collision with any DRC/AUD rule is a startup failure), plus
   the metadata the CLI renders as the --rules markdown table. *)

module Rules = Check.Rules
module Diagnostic = Check.Diagnostic

type meta = {
  id : string;
  severity : Diagnostic.severity;
  title : string;
  fires_on : string;
  stays_clean_on : string;
}

let lnt001 =
  Rules.register "LNT001"
    ~summary:"closure entering Exec.map/Pool.map captures or mutates unsanctioned mutable state"

let lnt002 =
  Rules.register "LNT002"
    ~summary:"polymorphic =/<>/compare on floats (use Float.equal or a tolerance)"

let lnt003 =
  Rules.register "LNT003"
    ~summary:"catch-all exception handler that can swallow Root.No_convergence"

let lnt004 =
  Rules.register "LNT004"
    ~summary:"diagnostic built from a literal rule id not minted via Check.Rules"

let lnt005 =
  Rules.register "LNT005"
    ~summary:"direct stdout/stderr printing in lib/ (route through lib/report or lib/obs)"

let lnt006 =
  Rules.register "LNT006"
    ~summary:"polymorphic </<=/>/>=/min/max/compare at a type variable (boxes floats)"

(* The UNT series: static dimensional analysis over float expressions
   (tools/lint/units.ml).  Sound-but-conservative — unknown never fires. *)
let unt001 =
  Rules.register "UNT001"
    ~summary:"additive/comparison combination of incompatible physical dimensions"

let unt002 =
  Rules.register "UNT002"
    ~summary:"non-dimensionless argument to exp/log/log10/** (normalize first)"

let unt003 =
  Rules.register "UNT003"
    ~summary:"display-unit value (nm, cm^-3, pA/um) combined with SI without a conversion"

let unt004 =
  Rules.register "UNT004"
    ~summary:"seeded-signature function applied to an argument of the wrong dimension"

let unt005 =
  Rules.register "UNT005"
    ~summary:"dimension lost through a polymorphic container round-trip (info)"

(* The ALS series: interprocedural buffer ownership/aliasing analysis over
   the Bigarray hot path (tools/lint/alias.ml).  Same contract as UNT:
   sound-but-conservative, unknown never fires. *)
let als001 =
  Rules.register "ALS001"
    ~summary:"flat buffer reachable from a closure entering Exec.map/Pool.map is mutated"

let als002 =
  Rules.register "ALS002"
    ~summary:"solver scratch escapes (stored long-lived) or is shared by overlapping solves"

let als003 =
  Rules.register "ALS003"
    ~summary:"solver output buffer aliases an input buffer of the same call"

let als004 =
  Rules.register "ALS004"
    ~summary:"function returns a buffer it also retains internally ([@owned] to assert)"

(* The RAC series: interprocedural lockset & domain-safety analysis over
   the concurrent exec/serve stack (tools/lint/races.ml).  Polarity differs
   from UNT/ALS in exactly one place: an unresolved call inside a
   critical section counts as may-raise (RAC002), because exception-
   unsafe locking is where optimism ships a wedged process.  Lock and
   state *identity* keeps the conservative contract. *)
let rac001 =
  Rules.register "RAC001"
    ~summary:"shared mutable state crosses domains without a consistent lockset"

let rac002 =
  Rules.register "RAC002"
    ~summary:"critical section can raise with the mutex held (no Fun.protect/Mutex.protect)"

let rac003 =
  Rules.register "RAC003"
    ~summary:"self-deadlock on a held mutex, or lock-order inversion across calls"

let rac004 =
  Rules.register "RAC004"
    ~summary:"torn atomic read-modify-write (Atomic.get then Atomic.set; use fetch_and_add/CAS)"

let rac005 =
  Rules.register "RAC005"
    ~summary:"blocking syscall while holding a lock ([@blocking_ok] to assert)"

(* Unreadable or truncated .cmt artifact: not a source defect, so it gets a
   kebab-case id outside the LNT series and only warns. *)
let unreadable_cmt =
  Rules.register "lint-unreadable-cmt"
    ~summary:"a .cmt artifact could not be read; the file was not linted"

let all : meta list =
  [ { id = lnt001;
      severity = Diagnostic.Error;
      title = "purity/race: parallel closures must not touch unsanctioned mutable state";
      fires_on =
        "a literal closure passed to `Exec.map`/`map2`/`mapi`/`map_array`/`Pool.map` that \
         captures a `ref`/`Hashtbl.t`/`Buffer.t`/`Queue.t`/`Stack.t` or a mutable flat \
         buffer (`Fvec.t`/`Field.t`/`Bigarray.Array1.t`, solver scratch), mutates a \
         captured or global array/record field, or mutates something the pass cannot \
         prove local";
      stays_clean_on =
        "closures that only read immutable captures, allocate and mutate their own local \
         state, or go through the whitelisted `Exec.Memo`/`Obs` APIs (domain-safe by \
         construction); `Atomic.t` is exempt (memory-model-sanctioned)" };
    { id = lnt002;
      severity = Diagnostic.Warning;
      title = "float discipline: no polymorphic equality on floats";
      fires_on =
        "`=`, `<>`, `==`, `!=` or `compare` from `Stdlib` instantiated at `float` (or a \
         tuple/option/list/array directly carrying floats)";
      stays_clean_on =
        "`Float.equal`, `Float.compare`, explicit tolerance helpers, ordering comparisons \
         (`<`, `<=`, ...), and polymorphic equality at non-float types" };
    { id = lnt003;
      severity = Diagnostic.Warning;
      title = "exception hygiene: no catch-alls that can swallow solver failures";
      fires_on =
        "`try ... with _ ->` / `with e ->` (and `match ... with exception _ ->`) whose \
         handler does not re-raise: it would silently swallow `Root.No_convergence` and \
         checker diagnostics";
      stays_clean_on =
        "handlers naming specific exceptions, and catch-alls that re-raise after cleanup" };
    { id = lnt004;
      severity = Diagnostic.Error;
      title = "diagnostic discipline: rule ids are minted via Check.Rules";
      fires_on =
        "`Diagnostic.error`/`warning`/`info`/`make` called with a literal string as \
         `~rule`, bypassing the collision-checked registry";
      stays_clean_on = "passing an identifier bound by `Check.Rules.register`" };
    { id = lnt005;
      severity = Diagnostic.Warning;
      title = "output hygiene: lib/ never prints directly";
      fires_on =
        "`print_*`/`prerr_*`/`Printf.printf`/`Printf.eprintf`/`Format.printf` in library \
         code outside the sanctioned output layers";
      stays_clean_on =
        "`lib/report` and `lib/obs` (the output layers themselves), `bin/` and \
         `tools/lint/subscale_lint.ml` (entry points print by design), formatting into buffers/strings \
         (`Printf.sprintf`, `Buffer`), and writing to an explicit caller-supplied \
         channel" };
    { id = lnt006;
      severity = Diagnostic.Warning;
      title = "generic ordering: no polymorphic comparison at a type variable";
      fires_on =
        "`<`, `<=`, `>`, `>=`, `min`, `max` or `compare` from `Stdlib` instantiated at a \
         bare type variable (e.g. elements of an `'a array` in a helper meant for float \
         tables): it cannot be specialized, so every float it reads is boxed and compared \
         through `caml_compare`";
      stays_clean_on =
        "the same operators at a known type (`float`, `int`, `string`, ...), including \
         through an annotation, and `Float.compare`/`Int.compare`/`Float.min`" };
    { id = unt001;
      severity = Diagnostic.Error;
      title = "dimensional analysis: additive combination of incompatible dimensions";
      fires_on =
        "`+.`, `-.`, a float comparison, or `Float.min`/`max` whose operands carry \
         provably different dimensions (a length added to a voltage, `A/m` compared \
         against `V`), per the seeded signature tables";
      stays_clean_on =
        "operands of equal dimension, numeric literals (dimension-polymorphic), and \
         anything the pass cannot infer (`unknown` never fires); `[@units \"...\"]` \
         asserts a dimension for a deliberate cast" };
    { id = unt002;
      severity = Diagnostic.Error;
      title = "dimensional analysis: transcendental of a dimensioned quantity";
      fires_on =
        "`exp`/`log`/`log10`/`expm1`/`log1p` applied to a value with a non-empty \
         inferred dimension (e.g. a raw voltage: Eq. 1 requires `(Vgs - Vth)/(m vT)` \
         first), or `**` with a non-integer literal exponent on a dimensioned base";
      stays_clean_on =
        "dimensionless arguments (voltage ratios, normalized currents), integer \
         literal exponents (which scale the dimension), `sqrt` (exponents halve), and \
         unknown-dimension arguments" };
    { id = unt003;
      severity = Diagnostic.Warning;
      title = "dimensional analysis: display-unit and SI values mixed";
      fires_on =
        "combining a value tagged with a display unit (produced by `Constants.to_nm`, \
         `to_per_cm3`, `to_pa_per_um`, or a `[@units \"nm\"]` assertion) with an \
         SI-scaled value of the same dimension without converting back";
      stays_clean_on =
        "staying inside one unit system, and crossing only through the `Constants` \
         conversion helpers (`nm`, `per_cm3`, `pa_per_um`, ...)" };
    { id = unt004;
      severity = Diagnostic.Error;
      title = "dimensional analysis: argument contradicts a seeded signature";
      fires_on =
        "calling a table-seeded function (`Silicon.fermi_potential`, \
         `Mobility.channel`, ...) with an argument whose inferred dimension \
         differs from the table (passing a voltage where a doping density belongs)";
      stays_clean_on =
        "arguments matching the table, literals, and arguments the pass cannot \
         infer" };
    { id = unt005;
      severity = Diagnostic.Info;
      title = "dimensional analysis: dimension lost through a container round-trip";
      fires_on =
        "a literal closure with a dimensioned result passed to `List.map`/`fold`/\
         `Array.map`/... — the element dimension is not tracked through the \
         container, so everything downstream degrades to unknown (reported once per \
         site, info only)";
      stays_clean_on =
        "closures with dimensionless or unknown results, and direct (non-container) \
         dataflow" };
    { id = als001;
      severity = Diagnostic.Error;
      title = "buffer ownership: no parallel mutation of captured flat buffers";
      fires_on =
        "a literal closure passed to `Exec.map`/`Pool.map` whose body — directly or \
         through resolved calls, per the interprocedural summaries — mutates an \
         `Fvec.t`/`Field.t`/`Bigarray.Array1.t` rooted in a capture (e.g. a captured \
         record whose field is written through a helper three calls down)";
      stays_clean_on =
        "closures that only read captured buffers, mutate buffers they allocated \
         themselves, or receive the buffer as their own argument; direct captures of \
         buffer-typed values are LNT001's business" };
    { id = als002;
      severity = Diagnostic.Error;
      title = "buffer ownership: solver scratch never escapes or overlaps";
      fires_on =
        "a `Poisson.scratch`/`Stencil5.t`/`Sparse_lu.t` workspace stored into a long-lived structure \
         (ref, Hashtbl, record field) — escape — or mutated through a capture inside a \
         closure entering the parallel engine, where every domain would reenter the \
         solver with the same workspace";
      stays_clean_on =
        "scratch threaded linearly as arguments and return values (caller-owned, \
         reused across *sequential* solves), and per-call workspaces allocated inside \
         the closure" };
    { id = als003;
      severity = Diagnostic.Error;
      title = "buffer ownership: solver outputs must not alias inputs";
      fires_on =
        "a call whose mutated (output) buffer argument provably aliases another \
         argument of the same call — `Fvec.blit v v`, or the same aliasing through \
         let-bindings and field projections";
      stays_clean_on =
        "distinct buffers, distinct record fields of one value (`s.sys` vs `s.work`), \
         and anything the root analysis cannot prove aliased (unknown never fires)" };
    { id = als004;
      severity = Diagnostic.Warning;
      title = "buffer ownership: returned buffers are not retained";
      fires_on =
        "a function that returns a flat buffer it also stored into longer-lived state \
         (a ref, container, or record field) — the caller receives a value someone \
         else can still mutate";
      stays_clean_on =
        "returning freshly allocated or argument buffers without storing them, and \
         functions annotated `[@owned]` (deliberate sharing, e.g. an interned \
         read-only table)" };
    { id = rac001;
      severity = Diagnostic.Error;
      title = "lockset: shared mutable state crosses domains under one consistent lock";
      fires_on =
        "a mutable record field (declared next to a `Mutex.t`) or a module-level \
         `ref`/`Hashtbl.t`/`Queue.t` in a unit that defines a module mutex, written \
         somewhere and reachable from a domain-crossing closure \
         (`Exec.map*`/`Pool.map`/`Domain.spawn`), where the intersection of locks \
         held across all accesses is empty — Eraser-style lockset refinement over \
         the interprocedural callgraph";
      stays_clean_on =
        "state guarded by the same mutex at every access (same instance for field \
         locks, same module lock for globals), `Atomic.t` fields \
         (memory-model-sanctioned), `Mutex.t`/`Condition.t` themselves, \
         initialization writes to a record still being constructed, and code where \
         no lock is ever in play for the class (some other synchronization may \
         exist: unknown never convicts)" };
    { id = rac002;
      severity = Diagnostic.Error;
      title = "lockset: critical sections are exception-safe";
      fires_on =
        "a `Mutex.lock` whose section can raise before the matching `Mutex.unlock` \
         — a partial stdlib call, an unresolved call (deliberately pessimistic \
         here), or a resolved callee whose summary may raise — so an exception \
         leaks the mutex forever; reported at the acquisition site with the first \
         piece of raise evidence";
      stays_clean_on =
        "`Mutex.protect`, `Fun.protect ~finally` unlocking the same mutex, \
         sections whose every operation is on the never-raises table \
         (`Hashtbl.replace`, `Queue.push`, arithmetic, ...), raise evidence \
         swallowed by a catch-all `try`, and early exits that unlock first" };
    { id = rac003;
      severity = Diagnostic.Error;
      title = "lockset: no self-deadlock, one global lock order";
      fires_on =
        "re-acquiring a mutex provably already held (stdlib mutexes are \
         non-reentrant), directly, through an inlined local helper, or through a \
         resolved call whose summary acquires the same class or the same \
         parameter-rooted lock; and any pair of lock classes acquired in both \
         orders anywhere in the program (deadlock window), reported at both sites";
      stays_clean_on =
        "distinct instances of a per-value lock class (two different shard locks), \
         release-before-reacquire, and nesting that always follows one order \
         (the DESIGN.md hierarchy)" };
    { id = rac004;
      severity = Diagnostic.Warning;
      title = "lockset: atomic updates are not torn";
      fires_on =
        "`Atomic.set a v` where `v` is derived from `Atomic.get a` (directly or \
         through a let-binding): a concurrent update between the get and the set \
         is silently lost";
      stays_clean_on =
        "`Atomic.fetch_and_add`/`incr`/`decr`/`exchange`, `compare_and_set` retry \
         loops, and get/set pairs on provably different atomics" };
    { id = rac005;
      severity = Diagnostic.Warning;
      title = "lockset: no blocking syscalls under a lock";
      fires_on =
        "`Unix.read`/`write`/`connect`/`select`/..., channel IO, `Sys.rename`, or \
         `Domain.join` reached while any lock is held (directly or via a resolved \
         callee that may block): every domain contending for the lock stalls \
         behind the IO";
      stays_clean_on =
        "IO outside critical sections, `Condition.wait` (it releases the mutex — \
         the sanctioned pattern), and bindings annotated `[@blocking_ok]` (the \
         store's by-design write-behind IO under a shard lock)" } ]

let severity_of_id id =
  match List.find_opt (fun m -> m.id = id) all with
  | Some m -> m.severity
  | None -> Diagnostic.Warning

let find id = List.find_opt (fun m -> m.id = id) all

(* Findings at each rule's registered severity, keeping the first message
   per rule and location. *)
let emitter () =
  let seen = Hashtbl.create 8 and out = ref [] in
  let emit ~rule ~location ~hint msg =
    let key = rule ^ "|" ^ location in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      out :=
        Diagnostic.make ~rule ~severity:(severity_of_id rule) ~location ~hint msg :: !out
    end
  in
  (emit, fun () -> List.rev !out)

(* The --rules markdown table; checked in under docs/lint-rules.md and
   diffed in CI so docs can never drift from the implementation. *)
let markdown () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "# `subscale_lint` rules\n\n";
  Buffer.add_string b
    "Generated by `subscale_lint --rules`; do not edit by hand (CI diffs this file\n\
     against the command output).\n\n";
  Buffer.add_string b "| Rule | Severity | Fires on | Stays clean on |\n";
  Buffer.add_string b "|------|----------|----------|----------------|\n";
  List.iter
    (fun m ->
      Buffer.add_string b
        (Printf.sprintf "| **%s** — %s | %s | %s | %s |\n" m.id m.title
           (Diagnostic.severity_label m.severity)
           m.fires_on m.stays_clean_on))
    all;
  Buffer.add_string b
    "\nFindings are grandfathered by listing them in `lint.baseline` \
     (`<rule> <file>:<line> — justification`); `subscale_lint --strict` fails on any\n\
     non-baselined finding, and stale baseline entries are reported so the file\n\
     shrinks monotonically.\n";
  Buffer.contents b
