(** The LNT rule family: ids minted through {!Check.Rules} (so a collision
    with any DRC or AUD rule fails at link time) plus the metadata behind
    [subscale_lint --rules]. *)

type meta = {
  id : string;
  severity : Check.Diagnostic.severity;
  title : string;
  fires_on : string;
  stays_clean_on : string;
}

val lnt001 : string
(** Purity/race: parallel closures must not capture or mutate unsanctioned
    mutable state. *)

val lnt002 : string
(** Float discipline: no polymorphic [=]/[compare] on floats. *)

val lnt003 : string
(** Exception hygiene: no non-re-raising catch-alls. *)

val lnt004 : string
(** Diagnostic discipline: rule ids only minted via [Check.Rules]. *)

val lnt005 : string
(** Output hygiene: no direct printing in lib/. *)

val lnt006 : string
(** Generic ordering: no polymorphic comparison at a type variable. *)

val unt001 : string
(** Dimensional analysis: additive/comparison combination of incompatible
    dimensions. *)

val unt002 : string
(** Dimensional analysis: non-dimensionless argument to exp/log/log10/**. *)

val unt003 : string
(** Dimensional analysis: display-unit (nm, cm^-3) and SI values mixed. *)

val unt004 : string
(** Dimensional analysis: argument contradicts a seeded signature. *)

val unt005 : string
(** Dimensional analysis: dimension lost through a container round-trip. *)

val als001 : string
(** Buffer ownership: parallel closure mutates a captured flat buffer. *)

val als002 : string
(** Buffer ownership: solver scratch escapes or is shared by overlapping
    solves. *)

val als003 : string
(** Buffer ownership: solver output buffer aliases an input of the same
    call. *)

val als004 : string
(** Buffer ownership: function returns a buffer it also retains
    ([@owned] asserts deliberate sharing). *)

val rac001 : string
(** Lockset: shared mutable state crosses domains without a consistent
    lockset. *)

val rac002 : string
(** Lockset: critical section can raise with the mutex held. *)

val rac003 : string
(** Lockset: self-deadlock on a held mutex, or lock-order inversion. *)

val rac004 : string
(** Lockset: torn atomic read-modify-write. *)

val rac005 : string
(** Lockset: blocking syscall while holding a lock. *)

val unreadable_cmt : string
(** Infrastructure warning: a .cmt artifact could not be read. *)

val all : meta list
val find : string -> meta option
val emitter :
  unit ->
  (rule:string -> location:string -> hint:string -> string -> unit)
  * (unit -> Check.Diagnostic.t list)
(** A fresh emit function and the findings it collected, in emission
    order: each at its rule's registered severity, the first message per
    rule and location kept. *)

val markdown : unit -> string
(** The rule table as markdown (checked in as docs/lint-rules.md). *)
