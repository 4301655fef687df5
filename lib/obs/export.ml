(* Render traces and metrics: Chrome trace_event JSON (loadable in
   chrome://tracing and Perfetto) and human-readable summary tables. *)

let buf_add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Non-finite floats have no JSON literal; render them as strings so the
   file stays parseable by any strict reader. *)
let buf_add_json_float b f =
  if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
  else buf_add_json_string b (Printf.sprintf "%h" f)

let buf_add_attr b = function
  | Trace.F f -> buf_add_json_float b f
  | Trace.I i -> Buffer.add_string b (string_of_int i)
  | Trace.S s -> buf_add_json_string b s
  | Trace.B v -> Buffer.add_string b (if v then "true" else "false")

let buf_add_args b attrs =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      buf_add_json_string b k;
      Buffer.add_char b ':';
      buf_add_attr b v)
    attrs;
  Buffer.add_char b '}'

let us t = t *. 1e6

(* Timestamps are rebased to the earliest event so the viewer opens at
   t = 0 instead of the monotonic clock's arbitrary origin. *)
let chrome_json ~dropped events =
  let t0 =
    List.fold_left
      (fun acc ev ->
        match ev with
        | Trace.Complete { ts; _ } | Trace.Instant { ts; _ } -> Float.min acc ts)
      infinity events
  in
  let t0 = if Float.is_finite t0 then t0 else 0.0 in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char b ',';
      match ev with
      | Trace.Complete { name; cat; ts; dur; tid; attrs } ->
        Buffer.add_string b "{\"name\":";
        buf_add_json_string b name;
        Buffer.add_string b ",\"cat\":";
        buf_add_json_string b (if cat = "" then "default" else cat);
        Buffer.add_string b ",\"ph\":\"X\",\"ts\":";
        buf_add_json_float b (us (ts -. t0));
        Buffer.add_string b ",\"dur\":";
        buf_add_json_float b (us dur);
        Buffer.add_string b (Printf.sprintf ",\"pid\":1,\"tid\":%d,\"args\":" tid);
        buf_add_args b attrs;
        Buffer.add_char b '}'
      | Trace.Instant { name; cat; ts; tid; attrs } ->
        Buffer.add_string b "{\"name\":";
        buf_add_json_string b name;
        Buffer.add_string b ",\"cat\":";
        buf_add_json_string b (if cat = "" then "default" else cat);
        Buffer.add_string b ",\"ph\":\"i\",\"s\":\"g\",\"ts\":";
        buf_add_json_float b (us (ts -. t0));
        Buffer.add_string b (Printf.sprintf ",\"pid\":1,\"tid\":%d,\"args\":" tid);
        buf_add_args b attrs;
        Buffer.add_char b '}')
    events;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"producer\":\"subscale\",";
  Buffer.add_string b (Printf.sprintf "\"droppedEvents\":%d}}" dropped);
  Buffer.contents b

let write_chrome ~path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_json ~dropped:(Trace.dropped ()) events))

(* --- summary tables ------------------------------------------------- *)

let time_str s =
  if Float.abs s < 1e-3 then Printf.sprintf "%8.1f us" (s *. 1e6)
  else if Float.abs s < 1.0 then Printf.sprintf "%8.2f ms" (s *. 1e3)
  else Printf.sprintf "%8.2f s " s

(* Aggregate spans by (cat, name): count, total/mean/max duration, sorted
   by total descending — the "where did the time go" table. *)
let span_summary events =
  let tbl : (string * string, int ref * float ref * float ref) Hashtbl.t = Hashtbl.create 32 in
  let instants : (string * string, int ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match ev with
      | Trace.Complete { name; cat; dur; _ } ->
        let n, total, mx =
          match Hashtbl.find_opt tbl (cat, name) with
          | Some r -> r
          | None ->
            let r = (ref 0, ref 0.0, ref 0.0) in
            Hashtbl.add tbl (cat, name) r;
            r
        in
        incr n;
        total := !total +. dur;
        if dur > !mx then mx := dur
      | Trace.Instant { name; cat; _ } ->
        (match Hashtbl.find_opt instants (cat, name) with
         | Some n -> incr n
         | None -> Hashtbl.add instants (cat, name) (ref 1)))
    events;
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-40s %8s %11s %11s %11s\n" "span" "count" "total" "mean" "max");
  let rows =
    Hashtbl.fold (fun (cat, name) (n, total, mx) acc -> (cat, name, !n, !total, !mx) :: acc) tbl []
    |> List.sort (fun (_, _, _, ta, _) (_, _, _, tb, _) -> Float.compare tb ta)
  in
  List.iter
    (fun (cat, name, n, total, mx) ->
      let label = if cat = "" then name else cat ^ "/" ^ name in
      Buffer.add_string b
        (Printf.sprintf "%-40s %8d %11s %11s %11s\n" label n (time_str total)
           (time_str (total /. float_of_int (max 1 n)))
           (time_str mx)))
    rows;
  let marks =
    Hashtbl.fold (fun (cat, name) n acc -> (cat, name, !n) :: acc) instants []
    |> List.sort compare
  in
  if marks <> [] then begin
    Buffer.add_string b "instant events:\n";
    List.iter
      (fun (cat, name, n) ->
        let label = if cat = "" then name else cat ^ "/" ^ name in
        Buffer.add_string b (Printf.sprintf "  %-38s %8d\n" label n))
      marks
  end;
  Buffer.contents b

let metrics_summary snapshot =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      match v with
      | Metrics.Counter n -> Buffer.add_string b (Printf.sprintf "%-44s %12d\n" name n)
      | Metrics.Gauge g -> Buffer.add_string b (Printf.sprintf "%-44s %12.6g\n" name g)
      | Metrics.Histogram h ->
        if h.Metrics.count = 0 then
          Buffer.add_string b (Printf.sprintf "%-44s %12s\n" name "(empty)")
        else
          Buffer.add_string b
            (Printf.sprintf "%-44s %12d  mean %.2f  min %g  max %g\n" name h.Metrics.count
               (h.Metrics.sum /. float_of_int h.Metrics.count)
               h.Metrics.min h.Metrics.max))
    snapshot;
  Buffer.contents b

let gc_summary (s : Gc.stat) =
  let words name w = Printf.sprintf "%-44s %12.0f\n" name w in
  let count name n = Printf.sprintf "%-44s %12d\n" name n in
  let bytes_per_word = float_of_int (Sys.word_size / 8) in
  String.concat ""
    [ words "minor_words" s.Gc.minor_words;
      words "promoted_words" s.Gc.promoted_words;
      words "major_words" s.Gc.major_words;
      count "minor_collections" s.Gc.minor_collections;
      count "major_collections" s.Gc.major_collections;
      Printf.sprintf "%-44s %12.1f\n" "top_heap_mb"
        (float_of_int s.Gc.top_heap_words *. bytes_per_word /. 1048576.0) ]
