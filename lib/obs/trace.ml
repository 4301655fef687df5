(* Span-based tracer.

   Disabled (the default) the entire tracer is one atomic flag load per
   span — no clock read, no allocation beyond the [Off] constant — so the
   instrumented hot paths (Poisson/Gummel solves, the domain pool, the
   memo tables) cost nothing when nobody is looking.  Enabled, spans and
   instant events are appended to a mutex-protected buffer tagged with the
   recording domain's id, which is what the Chrome trace_event export uses
   as the thread lane.

   The tracer is strictly observational: it reads clocks and appends to a
   private buffer, and never feeds anything back into the computation, so
   memo keys, pool schedules and every numeric result are bit-identical
   with tracing on or off (test_obs holds a qcheck property to that
   effect). *)

type attr = F of float | I of int | S of string | B of bool

type event =
  | Complete of {
      name : string;
      cat : string;
      ts : float;  (* start, seconds (monotonic clock) *)
      dur : float;  (* seconds *)
      tid : int;  (* recording domain *)
      attrs : (string * attr) list;
    }
  | Instant of {
      name : string;
      cat : string;
      ts : float;
      tid : int;
      attrs : (string * attr) list;
    }

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let enable () = Atomic.set enabled_flag true
(* Bounded buffer: a runaway sweep cannot eat the heap.  Drops are counted
   and reported by the export so truncation is visible, never silent. *)
let default_capacity = 1_000_000
let capacity = Atomic.make default_capacity
let set_capacity n = Atomic.set capacity (max 1 n)

let buffer : event list ref = ref []
let length = ref 0
let dropped_count = ref 0
let lock = Mutex.create ()

let record ev =
  Mutex.lock lock;
  if !length < Atomic.get capacity then begin
    buffer := ev :: !buffer;
    incr length
  end
  else incr dropped_count;
  Mutex.unlock lock

let events () =
  Mutex.lock lock;
  let evs = List.rev !buffer in
  Mutex.unlock lock;
  evs

let dropped () =
  Mutex.lock lock;
  let d = !dropped_count in
  Mutex.unlock lock;
  d

let clear () =
  Mutex.lock lock;
  buffer := [];
  length := 0;
  dropped_count := 0;
  Mutex.unlock lock

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let tid () = (Domain.self () :> int)

type span = Off | On of { name : string; cat : string; t0 : float; tid : int }

(* A span is a no-op constant while tracing is off; [stop] attaches the
   attributes only known at the end (iteration counts, residuals). *)
let start ?(cat = "") name =
  if Atomic.get enabled_flag then On { name; cat; t0 = now (); tid = tid () } else Off

let stop ?(attrs = []) span =
  match span with
  | Off -> ()
  | On { name; cat; t0; tid } -> record (Complete { name; cat; ts = t0; dur = now () -. t0; tid; attrs })

let with_span ?cat ?(attrs = []) name f =
  match start ?cat name with
  | Off -> f ()
  | On _ as s ->
    (match f () with
     | v ->
       stop ~attrs s;
       v
     | exception e ->
       stop ~attrs:(("raised", S (Printexc.to_string e)) :: attrs) s;
       raise e)

let instant ?(cat = "") ?(attrs = []) name =
  if Atomic.get enabled_flag then record (Instant { name; cat; ts = now (); tid = tid (); attrs })

let with_tracing f =
  let previous = Atomic.get enabled_flag in
  Atomic.set enabled_flag true;
  Fun.protect ~finally:(fun () -> Atomic.set enabled_flag previous) f
