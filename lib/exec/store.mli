(** Persistent on-disk tier behind {!Memo}: a file-backed,
    content-addressed cache keyed by the same {!Key} strings that
    identify in-memory memo entries.

    Layout: entries live under [root/<hh>/<digest>] where [<digest>] is
    the MD5 of ["<table-name>\x00<key>"] and [<hh>] its first two hex
    characters — 256 shards, each guarded by its own lock so concurrent
    domains never serialize on unrelated keys.  Records carry a
    versioned magic line ([subscale-store/1]) plus the full table name
    and key, so a hash collision reads back as a miss rather than a
    wrong answer.

    Writes are write-behind: {!add} enqueues, and the queue drains to
    disk when it reaches a small threshold, on {!flush}, and on
    {!close}.  Each record lands via write-to-temp + [rename], so a
    crash mid-write never leaves a torn record — readers see either the
    old entry or the new one.

    Values cross the disk boundary through a {!codec}.  The float
    codecs encode IEEE-754 bits as hex (same convention as
    {!Key.float}), so NaN payloads and [-0.] round-trip bit-exactly. *)

type t

type 'a codec = {
  encode : 'a -> string;
  decode : string -> 'a option;
      (** [None] on malformed or version-skewed payloads — treated as a
          cache miss, never an error. *)
}

val open_store : ?flush_threshold:int -> dir:string -> unit -> t
(** Open (creating if needed) a store rooted at [dir].  Writes a
    version stamp on first use and refuses roots stamped by an
    incompatible format with [Failure].  [flush_threshold] is the
    number of pending write-behind records that triggers a drain
    (default 16; [1] makes every {!add} synchronous). *)

val find : t -> name:string -> key:string -> string option
(** Look up the encoded payload for [key] in table [name].  Consults
    the pending write-behind queue, and the records a drain is still
    writing, before the disk, so a store never misses its own recent
    {!add}. *)

val add : t -> name:string -> key:string -> string -> unit
(** Enqueue [key -> payload] for table [name]; drains to disk once the
    pending queue reaches the flush threshold.  Last write wins for
    duplicate keys. *)

val flush : t -> unit
(** Drain all pending writes to disk now. *)

val close : t -> unit
(** Mark the handle closed — exactly one caller wins even under
    concurrent closes — then drain the pending queue; later
    {!add}/{!find} on a closed store raise [Failure]. *)

val dir : t -> string

val entry_count : t -> int
(** Number of records on disk (walks the shard directories). *)

(** {2 Counters} — cumulative over the handle's lifetime. *)

val hits : t -> int
val misses : t -> int

val writes : t -> int
(** Records written to disk (one per drained queue entry). *)

val flushes : t -> int
(** Write-behind batches drained to disk — by threshold, {!flush} or
    {!close}.  A growing {!pending} with a flat flush count is the
    signature of a stuck write-behind. *)

val pending : t -> int
(** Records currently queued, not yet on disk. *)

(** {2 Codecs} *)

val floats_codec : float array codec
(** A float array, length-prefixed, each element as 16 hex chars of its
    IEEE-754 bits, so NaN and -0. round-trip bit-exactly. *)

val tagged : string -> 'a codec -> 'a codec
(** [tagged tag codec] prefixes every payload with ["<tag>:"] and decodes
    a payload carrying any other tag as [None]: a version tag (e.g.
    ["chars/1"]) turns a record of another layout into a cache miss. *)
