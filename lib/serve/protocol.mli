(** The wire protocol of [subscale serve]: one JSON object per line
    (newline-delimited) in each direction, parsed and rendered with the
    dependency-free {!Report.Json} subset.

    Requests carry an ["op"] field selecting the query and an optional
    ["id"] (any JSON value) that is echoed verbatim in the response, so
    pipelined clients can match answers to questions.  Responses are
    [{"ok": true, ...}] on success and [{"ok": false, "error": "..."}]
    on failure; floats are rendered with 17 significant digits, so a
    response is a bit-exact image of the computed doubles. *)

type request =
  | Ping
  | Health
  | Shutdown
  | Device of { node : int; strategy : string }
      (** compact-model evaluation of one scaled device; identical
          requests in a batch share one evaluation *)
  | Tcad of {
      node : int;
      strategy : string;
      vdd : float;
      nx : int option;
      ny : int option;
    }  (** full 2-D characterization (three Id–Vg planes) *)
  | Idvg of {
      node : int;
      strategy : string;
      vd : float;
      vg_min : float;
      vg_max : float;
      points : int;
      nx : int option;
      ny : int option;
    }  (** one Id–Vg sweep; overlapping boxes are coalesced server-side *)

type envelope = { id : Report.Json.t; req : request }
(** [id] is [Json.Null] when the request carried none. *)

val parse_request : string -> (envelope, string) result
(** Parse one request line.  Errors name the offending field (or the
    byte offset, for malformed JSON); out-of-bounds resource parameters
    ([points], [nx], [ny]) are rejected here, before anything is
    allocated or planned. *)

val render_request : ?id:Report.Json.t -> request -> string
(** The canonical request line for [req] (no trailing newline) — the
    client-side inverse of {!parse_request}, used by tests and the CLI
    smoke client. *)

val ok_response : id:Report.Json.t -> (string * Report.Json.t) list -> string
(** [{"ok": true, "id": id, <fields>}] (the [id] field is omitted when
    [Null]); no trailing newline.  It is [ok_response_of_body ~id
    (ok_body fields)]. *)

val ok_body : (string * Report.Json.t) list -> string
(** The bytes of an ok response after its [id] field: the fields, each
    led by its ',', and the closing brace.  A body does not depend on the
    id, so one rendering answers every request for the same value. *)

val ok_response_of_body : id:Report.Json.t -> string -> string
(** The ok response with [id] spliced in front of a rendered
    {!ok_body}. *)

val error_response : id:Report.Json.t -> string -> string
(** [{"ok": false, "id": id, "error": msg}]; no trailing newline. *)
