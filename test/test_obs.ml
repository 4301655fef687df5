(* The observability subsystem: span recording and attribute round-trips,
   Chrome trace_event export validity, the metrics registry, the memo
   mirrors, the non-convergence event plumbing end to end through the TCAD
   solvers, and the contract that matters most — tracing on or off, jobs 1
   or 4, results are bit-identical. *)

open Test_util
module Obs = Subscale.Obs
module Trace = Subscale.Obs.Trace
module Metrics = Subscale.Obs.Metrics
module Export = Subscale.Obs.Export
module Exec = Subscale.Exec
module Root = Subscale.Numerics.Root

let u = Test_util.case

(* Run [f] with a clean, enabled tracer; restore the previous state and
   drop the recorded events after, so suites sharing the process never see
   each other's spans. *)
let with_clean_trace f =
  Trace.clear ();
  Fun.protect ~finally:(fun () -> Trace.clear ()) (fun () -> Trace.with_tracing f)

let restore_jobs f =
  let before = Exec.jobs () in
  Fun.protect ~finally:(fun () -> Exec.set_jobs before) f

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* --- minimal JSON parser (validity checking only) -------------------- *)

(* Just enough of RFC 8259 to prove the export is well-formed: values are
   parsed fully and returned as unit; any syntax error raises. *)
exception Bad_json of string

let parse_json (s : string) =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | Some _ | None -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %C, found %C" c c')
    | None -> fail (Printf.sprintf "expected %C, found end of input" c)
  in
  let literal word =
    String.iter expect word
  in
  let parse_string () =
    expect '"';
    let rec chars () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
           advance ();
           chars ()
         | Some 'u' ->
           advance ();
           for _ = 1 to 4 do
             match peek () with
             | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
             | Some _ | None -> fail "bad \\u escape"
           done;
           chars ()
         | Some c -> fail (Printf.sprintf "bad escape %C" c)
         | None -> fail "unterminated escape")
      | Some c when Char.code c < 0x20 -> fail "raw control character in string"
      | Some _ ->
        advance ();
        chars ()
    in
    chars ()
  in
  let parse_number () =
    let digit_run () =
      let start = !pos in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
          advance ();
          go ()
        | Some _ | None -> ()
      in
      go ();
      if !pos = start then fail "expected digits"
    in
    if peek () = Some '-' then advance ();
    digit_run ();
    if peek () = Some '.' then begin
      advance ();
      digit_run ()
    end;
    (match peek () with
     | Some ('e' | 'E') ->
       advance ();
       (match peek () with Some ('+' | '-') -> advance () | Some _ | None -> ());
       digit_run ()
     | Some _ | None -> ())
  in
  let rec parse_value () =
    skip_ws ();
    (match peek () with
     | Some '{' ->
       advance ();
       skip_ws ();
       if peek () = Some '}' then advance ()
       else begin
         let rec members () =
           skip_ws ();
           parse_string ();
           skip_ws ();
           expect ':';
           parse_value ();
           skip_ws ();
           match peek () with
           | Some ',' ->
             advance ();
             members ()
           | Some '}' -> advance ()
           | Some _ | None -> fail "expected ',' or '}'"
         in
         members ()
       end
     | Some '[' ->
       advance ();
       skip_ws ();
       if peek () = Some ']' then advance ()
       else begin
         let rec elements () =
           parse_value ();
           skip_ws ();
           match peek () with
           | Some ',' ->
             advance ();
             elements ()
           | Some ']' -> advance ()
           | Some _ | None -> fail "expected ',' or ']'"
         in
         elements ()
       end
     | Some '"' -> parse_string ()
     | Some 't' -> literal "true"
     | Some 'f' -> literal "false"
     | Some 'n' -> literal "null"
     | Some ('-' | '0' .. '9') -> parse_number ()
     | Some c -> fail (Printf.sprintf "unexpected %C" c)
     | None -> fail "unexpected end of input");
    skip_ws ()
  in
  parse_value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let check_valid_json what s =
  match parse_json s with
  | () -> ()
  | exception Bad_json msg -> Alcotest.failf "%s: invalid JSON (%s)" what msg

(* --- tracer ---------------------------------------------------------- *)

let event_name = function Trace.Complete { name; _ } | Trace.Instant { name; _ } -> name
let event_cat = function Trace.Complete { cat; _ } | Trace.Instant { cat; _ } -> cat
let event_attrs = function Trace.Complete { attrs; _ } | Trace.Instant { attrs; _ } -> attrs

let trace_tests =
  [
    u "spans nest and round-trip their attributes" (fun () ->
        with_clean_trace (fun () ->
            Trace.with_span ~cat:"t" "outer" (fun () ->
                Trace.with_span ~cat:"t" ~attrs:[ ("k", Trace.I 7) ] "inner" (fun () ->
                    Trace.instant ~cat:"t" ~attrs:[ ("x", Trace.F 1.5) ] "tick"));
            match Trace.events () with
            | [ tick; inner; outer ] ->
              (* Instants record at emission, spans at close: inner closes
                 before outer. *)
              Alcotest.(check string) "tick" "tick" (event_name tick);
              Alcotest.(check string) "inner" "inner" (event_name inner);
              Alcotest.(check string) "outer" "outer" (event_name outer);
              Alcotest.(check bool) "inner attr" true
                (event_attrs inner = [ ("k", Trace.I 7) ]);
              Alcotest.(check bool) "tick attr" true
                (event_attrs tick = [ ("x", Trace.F 1.5) ])
            | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs)));
    u "a raising span still closes, tagged" (fun () ->
        with_clean_trace (fun () ->
            (match Trace.with_span "doomed" (fun () -> failwith "boom") with
             | () -> Alcotest.fail "expected Failure"
             | exception Failure _ -> ());
            match Trace.events () with
            | [ ev ] ->
              Alcotest.(check bool) "raised attr present" true
                (List.mem_assoc "raised" (event_attrs ev))
            | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)));
    u "disabled tracing records nothing" (fun () ->
        Trace.clear ();
        Trace.with_span "invisible" (fun () -> ());
        Trace.instant "also invisible";
        Alcotest.(check int) "no events" 0 (List.length (Trace.events ())));
    u "the buffer bound drops instead of growing" (fun () ->
        with_clean_trace (fun () ->
            Trace.set_capacity 10;
            Fun.protect
              ~finally:(fun () -> Trace.set_capacity 1_000_000)
              (fun () ->
                for i = 1 to 25 do
                  Trace.instant (Printf.sprintf "e%d" i)
                done;
                Alcotest.(check int) "kept" 10 (List.length (Trace.events ()));
                Alcotest.(check int) "dropped" 15 (Trace.dropped ()))));
  ]

(* --- Chrome export --------------------------------------------------- *)

(* What [Export.write_chrome] puts in its file. *)
let chrome_json events =
  let path = Filename.temp_file "subscale-trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Export.write_chrome ~path events;
      In_channel.with_open_bin path In_channel.input_all)

let export_tests =
  [
    u "chrome export is valid JSON with the trace_event shape" (fun () ->
        let json =
          with_clean_trace (fun () ->
              Trace.with_span ~cat:"c" ~attrs:[ ("s", Trace.S "a\"b\\c\nd") ] "span" (fun () ->
                  Trace.instant ~cat:"c" "mark");
              chrome_json (Trace.events ()))
        in
        check_valid_json "chrome_json" json;
        List.iter
          (fun needle ->
            if not (contains ~needle json) then Alcotest.failf "missing %S in export" needle)
          [ "\"traceEvents\""; "\"ph\":\"X\""; "\"ph\":\"i\""; "\"span\""; "\"mark\"" ]);
    u "non-finite attribute floats still export as valid JSON" (fun () ->
        let json =
          with_clean_trace (fun () ->
              Trace.instant
                ~attrs:[ ("nan", Trace.F Float.nan); ("inf", Trace.F Float.infinity) ]
                "weird";
              chrome_json (Trace.events ()))
        in
        check_valid_json "chrome_json with non-finite floats" json);
    u "empty trace still exports as valid JSON" (fun () ->
        check_valid_json "empty" (chrome_json []));
    u "span summary tabulates counts and totals" (fun () ->
        let summary =
          with_clean_trace (fun () ->
              Trace.with_span ~cat:"k" "work" (fun () -> ());
              Trace.with_span ~cat:"k" "work" (fun () -> ());
              Export.span_summary (Trace.events ()))
        in
        Alcotest.(check bool) "mentions the span" true (contains ~needle:"work" summary));
    u "the profile ends with a GC section" (fun () ->
        let report = Subscale.Obs.profile_report () in
        List.iter
          (fun needle ->
            if not (contains ~needle report) then Alcotest.failf "missing %S in the profile" needle)
          [ "--- obs: span summary"; "--- obs: metrics"; "--- obs: gc ---"; "minor_words";
            "promoted_words"; "major_words"; "minor_collections"; "major_collections";
            "top_heap_mb" ]);
  ]

(* --- metrics registry ------------------------------------------------ *)

let metrics_tests =
  [
    u "counters count, by name, process-wide" (fun () ->
        let c = Metrics.counter "testobs.counter" in
        let before = Test_util.counter_value "testobs.counter" in
        Metrics.incr c;
        Metrics.incr ~by:4 c;
        Alcotest.(check int) "value" (before + 5) (Test_util.counter_value "testobs.counter");
        let again = Metrics.counter "testobs.counter" in
        Metrics.incr again;
        Alcotest.(check bool) "shared instrument, seen by the snapshot" true
          (Metrics.find "testobs.counter" = Some (Metrics.Counter (before + 6))));
    u "requesting an existing name as another type is an error" (fun () ->
        ignore (Metrics.counter "testobs.typed");
        (match Metrics.histogram "testobs.typed" with
         | _ -> Alcotest.fail "expected Invalid_argument"
         | exception Invalid_argument _ -> ()));
    u "histograms bucket on inclusive upper bounds" (fun () ->
        let h = Metrics.histogram "testobs.hist" in
        List.iter (Metrics.observe h) [ 0.5; 1.0; 7.0; 55.0; 1e6 ];
        match Metrics.find "testobs.hist" with
        | Some (Metrics.Histogram s) ->
          Alcotest.(check int) "count" 5 s.Metrics.count;
          Alcotest.(check (float 1e-9)) "sum" (0.5 +. 1.0 +. 7.0 +. 55.0 +. 1e6) s.Metrics.sum;
          Alcotest.(check (float 0.0)) "min" 0.5 s.Metrics.min;
          Alcotest.(check (float 0.0)) "max" 1e6 s.Metrics.max;
          Alcotest.(check bool) "buckets" true
            (s.Metrics.buckets
             = [ (1.0, 2); (2.0, 0); (5.0, 0); (10.0, 1); (20.0, 0); (50.0, 0); (100.0, 1);
                 (200.0, 0); (500.0, 0); (1000.0, 0) ]);
          Alcotest.(check int) "overflow" 1 s.Metrics.overflow
        | Some (Metrics.Counter _ | Metrics.Gauge _) | None ->
          Alcotest.fail "expected a histogram");
    u "counters survive parallel increments" (fun () ->
        let c = Metrics.counter "testobs.parallel" in
        let before = Test_util.counter_value "testobs.parallel" in
        let domains = List.init 4 (fun _ -> Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Metrics.incr c
            done))
        in
        List.iter Domain.join domains;
        Alcotest.(check int) "all increments kept" (before + 40_000)
          (Test_util.counter_value "testobs.parallel"));
  ]

(* --- memo mirrors and pool instrumentation --------------------------- *)

let exec_tests =
  [
    u "memo tables mirror hits and misses into the registry" (fun () ->
        let table : int Exec.Memo.t = Exec.Memo.create ~name:"testobs.memo" () in
        (match Metrics.find "memo.testobs.memo.hits" with
         | Some (Metrics.Counter _) -> ()
         | _ -> Alcotest.fail "hits mirror not registered");
        let h0 =
          match Metrics.find "memo.testobs.memo.hits" with
          | Some (Metrics.Counter n) -> n
          | _ -> 0
        and m0 =
          match Metrics.find "memo.testobs.memo.misses" with
          | Some (Metrics.Counter n) -> n
          | _ -> 0
        in
        ignore (Exec.Memo.find_or_compute table ~key:"k" (fun () -> 1) : int);
        ignore (Exec.Memo.find_or_compute table ~key:"k" (fun () -> 1) : int);
        ignore (Exec.Memo.find_or_compute table ~key:"k2" (fun () -> 2) : int);
        (match Metrics.find "memo.testobs.memo.hits" with
         | Some (Metrics.Counter n) -> Alcotest.(check int) "hits" (h0 + 1) n
         | _ -> Alcotest.fail "hits mirror vanished");
        match Metrics.find "memo.testobs.memo.misses" with
        | Some (Metrics.Counter n) -> Alcotest.(check int) "misses" (m0 + 2) n
        | _ -> Alcotest.fail "misses mirror vanished");
    u "a traced memo miss records a span, a hit does not" (fun () ->
        let table : int Exec.Memo.t = Exec.Memo.create ~name:"testobs.memospan" () in
        with_clean_trace (fun () ->
            ignore (Exec.Memo.find_or_compute table ~key:"k" (fun () -> 1) : int);
            ignore (Exec.Memo.find_or_compute table ~key:"k" (fun () -> 1) : int);
            let spans =
              List.filter (fun e -> event_name e = "memo.testobs.memospan") (Trace.events ())
            in
            Alcotest.(check int) "one span (the miss)" 1 (List.length spans)));
    u "a traced fan-out records exec and pool spans" (fun () ->
        restore_jobs (fun () ->
            Exec.set_jobs 4;
            with_clean_trace (fun () ->
                let xs = List.init 64 Fun.id in
                let ys = Exec.map (fun x -> x * x) xs in
                Alcotest.(check (list int)) "results" (List.map (fun x -> x * x) xs) ys;
                let names = List.map event_name (Trace.events ()) in
                Alcotest.(check bool) "exec.map span" true (List.mem "exec.map" names);
                Alcotest.(check bool) "pool.map span" true (List.mem "pool.map" names))));
  ]

(* --- non-convergence events end to end ------------------------------- *)

let counter_of = Test_util.counter_value

let tcad_device = lazy (Subscale.Tcad.Structure.build Subscale.Tcad.Structure.default_description)

let non_convergence_tests =
  [
    u "Root exhaustion bumps the numerics counter and emits an instant" (fun () ->
        with_clean_trace (fun () ->
            let before = counter_of "numerics.root.non_converged" in
            (match Root.bisect ~max_iter:2 cos 1.0 2.0 with
             | exception Root.No_convergence _ -> ()
             | _ -> Alcotest.fail "expected No_convergence");
            Alcotest.(check int) "counter" (before + 1)
              (counter_of "numerics.root.non_converged");
            let instants =
              List.filter (fun e -> event_name e = "non_converged") (Trace.events ())
            in
            Alcotest.(check int) "instant event" 1 (List.length instants)));
    u "Root brent exhaustion counts with tracing off" (fun () ->
        let before = counter_of "numerics.root.non_converged" in
        (match Root.brent ~max_iter:2 cos 1.0 2.0 with
         | exception Root.No_convergence _ -> ()
         | _ -> Alcotest.fail "expected No_convergence");
        Alcotest.(check int) "counter" (before + 1) (counter_of "numerics.root.non_converged"));
    slow_case "Gummel with max_gummel=1 fails loudly, counted and traced" (fun () ->
        let dev = Lazy.force tcad_device in
        let eq = Subscale.Tcad.Gummel.equilibrium dev in
        with_clean_trace (fun () ->
            let before = counter_of "tcad.gummel.non_converged" in
            (match
               Subscale.Tcad.Gummel.solve_at ~max_gummel:1 dev ~from:eq
                 { Subscale.Tcad.Poisson.zero_bias with
                   Subscale.Tcad.Poisson.gate = 0.3;
                   drain = 0.3;
                 }
             with
             | _ -> Alcotest.fail "expected No_convergence"
             | exception Subscale.Tcad.Gummel.No_convergence _ -> ());
            Alcotest.(check int) "counter" (before + 1)
              (counter_of "tcad.gummel.non_converged");
            let instants =
              List.filter
                (fun e ->
                  event_name e = "non_converged" && event_cat e = "tcad.gummel")
                (Trace.events ())
            in
            Alcotest.(check int) "instant event" 1 (List.length instants)));
  ]

(* --- determinism: observation never feeds back ----------------------- *)

(* Fingerprint a small paper-style computation bit-exactly: table1's
   rendered rows plus a compact-model Id-Vg sweep fanned out through
   Exec.map (the same machinery every paper table uses). *)
let fingerprint () =
  let table = (Subscale.Experiments.table1 ()).Subscale.Experiments.table in
  let phys = List.hd Subscale.Device.Params.paper_table2 in
  let pair = Subscale.Circuits.Inverter.pair_of_physical phys in
  let nfet = pair.Subscale.Circuits.Inverter.nfet in
  let vgs = List.init 40 (fun i -> 0.9 *. float_of_int i /. 39.0) in
  let ids = Exec.map (fun vg -> Subscale.Device.Iv_model.id nfet ~vgs:vg ~vds:0.25) vgs in
  Exec.Key.fields "determinism"
    [
      ("table1", Subscale.Report.Table.render table);
      ("ids", Exec.Key.floats (Array.of_list ids));
    ]

let determinism_tests =
  [
    prop "tracing on/off and jobs 1/4 leave results bit-identical" ~count:8
      QCheck2.Gen.(pair (oneofl [ 1; 4 ]) bool)
      (fun (jobs, traced) ->
        let baseline = fingerprint () in
        restore_jobs (fun () ->
            Exec.set_jobs jobs;
            let fp = if traced then with_clean_trace fingerprint else fingerprint () in
            String.equal baseline fp));
  ]

let suite =
  [
    ("obs.trace", trace_tests);
    ("obs.export", export_tests);
    ("obs.metrics", metrics_tests);
    ("obs.exec", exec_tests);
    ("obs.non_convergence", non_convergence_tests);
    ("obs.determinism", determinism_tests);
  ]
