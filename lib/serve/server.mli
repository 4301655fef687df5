(** The [subscale serve] daemon: an accept/dispatch loop speaking the
    line-delimited JSON {!Protocol} over a Unix-domain or loopback TCP
    socket, answering characterization queries from the {!Exec.Memo}
    tables — optionally backed by a persistent {!Exec.Store} tier — and
    fanning compute-bound queries out over the shared {!Exec} pool.

    Each [select] round drains every complete request line from every
    connection into one batch.  A [device], [tcad] or [idvg] request
    bit-for-bit equal to one answered earlier by a job keyed by that
    request alone is answered as it is parsed, from the {!Answer_cache}
    (1 MiB of answer bodies, cleared when full; [serve.answer_hits]
    counts its hits).  Of the rest, overlapping Id–Vg boxes in the batch
    are {!Coalesce}d into shared warm-started runs, identical device or
    characterization requests collapse into one job, and responses are
    written back in per-connection request order, each connection's in
    one write.  A [shutdown] request answers, flushes the store, and
    returns from {!run}.

    A memo or store hit is a key and a lookup on the loop: keys are built
    from the request alone (no structure is built to name a mesh), each
    in one string of its exact size.  The loop's domain, which holds one
    batch's temporaries and is also the caller lane of a fan-out, runs on
    the pool workers' task-sized minor heap
    ({!Exec.Pool.task_minor_heap_words}) from its first [select]. *)

type config = {
  listen : [ `Unix of string | `Tcp of string * int ];
      (** [`Unix path] or [`Tcp (host, port)]; port 0 binds an ephemeral
          port.  A stale socket file left at [path] by a crashed daemon
          is replaced; binding fails (with [Failure]) if the path holds
          anything other than a socket, or if a live daemon still
          answers on it. *)
  cache_dir : string option;
      (** When set, an {!Exec.Store} opened here backs the device
          selection, characterization and sweep memo tables: queries
          answered on one run of the daemon are served bit-identically
          from disk by the next.  Device evaluations stay in memory and
          are recomputed after a restart. *)
}

val run : ?on_ready:(Unix.sockaddr -> unit) -> config -> unit
(** Bind, listen and serve until a [shutdown] request arrives.
    [on_ready] fires once the socket is listening (with the bound
    address — the actual port when [`Tcp] bound port 0), before the
    first [accept]; tests use it to connect from another domain.  Right
    after [on_ready] the calling domain's minor heap is set to the task
    size, and it stays so after [run] returns, so a caller that goes on
    computing runs the daemon on a domain of its own, as the tests do.
    A start refused at the bind leaves the heap as it was. *)
