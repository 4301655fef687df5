(* The serving layer: protocol round-trips, sweep-box coalescing, the
   persistent store tier (bit-exact float round-trips, write-behind,
   version gating), and the daemon end-to-end over a Unix socket —
   including the restart test proving that a repeated characterization
   query is answered from the persistent store with the same bytes as
   the cold compute. *)

open Test_util
module Json = Subscale.Report.Json
module Protocol = Subscale.Serve.Protocol
module Coalesce = Subscale.Serve.Coalesce
module Answer_cache = Subscale.Serve.Answer_cache
module Server = Subscale.Serve.Server
module Store = Subscale.Exec.Store
module Memo = Subscale.Exec.Memo
module Extract = Subscale.Tcad.Extract

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- scratch directories --------------------------------------------- *)

let scratch_seq = ref 0

let scratch_dir prefix =
  incr scratch_seq;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "subscale-%s-%d-%d" prefix (Unix.getpid ()) !scratch_seq)
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then rm dir;
  Unix.mkdir dir 0o755;
  dir

(* --- protocol --------------------------------------------------------- *)

let protocol_tests =
  [
    case "request lines round-trip through parse" (fun () ->
        let reqs =
          [ Protocol.Ping;
            Protocol.Health;
            Protocol.Shutdown;
            Protocol.Device { node = 90; strategy = "sub" };
            Protocol.Tcad { node = 65; strategy = "super"; vdd = 0.9; nx = Some 24; ny = None };
            Protocol.Idvg
              { node = 45; strategy = "sub"; vd = 0.05; vg_min = 0.0; vg_max = 0.3;
                points = 5; nx = None; ny = Some 20 } ]
        in
        List.iter
          (fun req ->
            let line = Protocol.render_request ~id:(Json.Num 7.0) req in
            match Protocol.parse_request line with
            | Ok env ->
              Alcotest.(check bool) "request survives" true (env.Protocol.req = req);
              Alcotest.(check bool) "id echoed" true (env.Protocol.id = Json.Num 7.0)
            | Error msg -> Alcotest.failf "round-trip failed on %s: %s" line msg)
          reqs);
    case "missing id parses as Null" (fun () ->
        match Protocol.parse_request {|{"op":"ping"}|} with
        | Ok env -> Alcotest.(check bool) "null id" true (env.Protocol.id = Json.Null)
        | Error msg -> Alcotest.fail msg);
    case "unknown op and missing fields are named" (fun () ->
        (match Protocol.parse_request {|{"op":"frobnicate"}|} with
        | Error msg ->
          Alcotest.(check bool) "names the op" true
            (String.length msg > 0 && msg = {|unknown op "frobnicate"|})
        | Ok _ -> Alcotest.fail "accepted unknown op");
        (match Protocol.parse_request {|{"op":"device","node":90}|} with
        | Error msg ->
          Alcotest.(check bool) "names the field" true
            (msg = {|missing field "strategy"|})
        | Ok _ -> Alcotest.fail "accepted incomplete device request");
        match Protocol.parse_request "{" with
        | Error msg ->
          Alcotest.(check bool) "malformed JSON reports byte offset" true
            (String.length msg > 0)
        | Ok _ -> Alcotest.fail "accepted malformed JSON");
    case "responses carry ok, id and error" (fun () ->
        let ok = Protocol.ok_response ~id:(Json.Str "q1") [ ("x", Json.Num 1.5) ] in
        Alcotest.(check string) "ok shape" {|{"ok":true,"id":"q1","x":1.5}|} ok;
        let err = Protocol.error_response ~id:Json.Null "boom" in
        Alcotest.(check string) "error shape" {|{"ok":false,"error":"boom"}|} err);
    case "an ok response is its head, the id and the body" (fun () ->
        (* The answer cache splices ids into stored bodies: the bytes must
           be the whole object's rendering, whatever the id and fields. *)
        List.iter
          (fun id ->
            List.iter
              (fun fields ->
                let whole =
                  Json.render
                    (Json.Obj
                       ((("ok", Json.Bool true)
                        :: (match id with Json.Null -> [] | id -> [ ("id", id) ]))
                       @ fields))
                in
                Alcotest.(check string) "spliced" whole
                  (Protocol.ok_response_of_body ~id (Protocol.ok_body fields));
                Alcotest.(check string) "composed" whole (Protocol.ok_response ~id fields))
              [ []; [ ("x", Json.Num 1.5) ];
                [ ("vgs", Json.Arr [ Json.Num 0.1; Json.Num (-0.0) ]); ("s", Json.Str "a\"b") ] ])
          [ Json.Null; Json.Num 7.0; Json.Num 0.25; Json.Str "q1"; Json.Arr [ Json.Bool true ] ]);
    case "render emits floats with 17 significant digits" (fun () ->
        let v = 0.1 +. 0.2 in
        let rendered = Json.render (Json.Num v) in
        match Json.parse_exn rendered with
        | Json.Num v' ->
          Alcotest.(check bool) "bit-exact round-trip" true
            (Int64.bits_of_float v = Int64.bits_of_float v')
        | _ -> Alcotest.fail "not a number");
    (* Every response float goes through this rendering, and the bytes a
       daemon answers with must not move: the C formatting it calls now
       is the one Printf's format interpreter reached. *)
    Test_util.prop "render writes a number as Printf did" ~count:1000
      QCheck2.Gen.(
        oneof
          [ map Int64.float_of_bits ui64;
            map float_of_int (int_range (-1_000_000) 1_000_000);
            map (fun x -> x *. 1e-310) (float_range (-1.0) 1.0);
            oneofl [ 0.0; -0.0; 1e15; -1e15; 1e15 -. 1.0; 0.1 +. 0.2 ] ])
      (fun f ->
        let printf =
          if not (Float.is_finite f) then "null"
          else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
          else Printf.sprintf "%.17g" f
        in
        String.equal printf (Json.render (Json.Num f)));
    case "hostile JSON is a parse error, never an escaping exception" (fun () ->
        (* A non-hex \u escape used to raise Failure out of
           int_of_string — past the Json.Bad handler and through the
           daemon's parse step. *)
        (match Protocol.parse_request {|{"op":"ping","id":"\uZZZZ"}|} with
        | Error msg ->
          Alcotest.(check bool) "malformed escape is a Bad" true
            (contains ~sub:"escape" msg)
        | Ok _ -> Alcotest.fail "accepted a malformed \\u escape");
        (* int_of_string would also take signs and underscores. *)
        (match Protocol.parse_request {|{"op":"ping","id":"\u-1_2"}|} with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted a signed \\u escape");
        (match Json.parse {|"\u0041"|} with
        | Ok (Json.Str "A") -> ()
        | _ -> Alcotest.fail "a well-formed \\u escape must still decode");
        (* The reader sees NUL past the end of the line; a NUL byte in the
           line must still read as a byte, not as the end. *)
        List.iter
          (fun (line, expected) ->
            Alcotest.(check (result string string))
              (String.escaped line) expected
              (Result.map Json.render (Json.parse line)))
          [ ("\"a\000b\"", Ok "\"a\\u0000b\"");
            ("\"ab", Error "unterminated string at byte 3");
            ("[\000]", Error "expected number at byte 1");
            ("[", Error "unexpected end of input at byte 1") ];
        (* A deliberately deep line must be a Bad, not Stack_overflow. *)
        match Json.parse (String.make 100_000 '[') with
        | Error msg ->
          Alcotest.(check bool) "depth cap names itself" true
            (contains ~sub:"nesting too deep" msg)
        | Ok _ -> Alcotest.fail "parsed an unterminated tower of arrays");
    case "resource bounds are enforced at parse time" (fun () ->
        let expect_error line sub =
          match Protocol.parse_request line with
          | Error msg ->
            Alcotest.(check bool) (Printf.sprintf "rejected via %S" sub) true
              (contains ~sub msg)
          | Ok _ -> Alcotest.failf "accepted %s" line
        in
        expect_error
          {|{"op":"idvg","node":90,"strategy":"sub","vd":0.05,"vg_min":0.0,"vg_max":0.3,"points":100000}|}
          "points = 100000 exceeds the maximum 4096";
        expect_error {|{"op":"tcad","node":90,"strategy":"sub","nx":0}|}
          "tcad.nx = 0 out of bounds [4, 512]";
        expect_error
          {|{"op":"idvg","node":90,"strategy":"sub","vd":0.05,"vg_min":0.0,"vg_max":0.3,"points":5,"ny":100000}|}
          "idvg.ny = 100000 out of bounds [4, 512]";
        match
          Protocol.parse_request {|{"op":"tcad","node":90,"strategy":"sub","nx":24,"ny":20}|}
        with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "in-range mesh rejected: %s" msg);
  ]

(* --- coalescing ------------------------------------------------------- *)

let box rid vd vg_min vg_max points = { Coalesce.rid; vd; vg_min; vg_max; points }

let coalesce_tests =
  [
    case "overlapping boxes at one vd merge into one group" (fun () ->
        let groups = Coalesce.plan [ box 0 0.05 0.0 0.2 3; box 1 0.05 0.1 0.3 3 ] in
        Alcotest.(check int) "one group" 1 (List.length groups);
        let g = List.hd groups in
        Alcotest.(check int) "both members" 2 (List.length g.Coalesce.members);
        check_increasing "merged grid strictly increasing" g.Coalesce.grid;
        (* Every member reads its own linspace points, bit-exact, off the
           merged grid. *)
        List.iter
          (fun (rid, idx) ->
            let own = Coalesce.grid_of_box (if rid = 0 then box 0 0.05 0.0 0.2 3 else box 1 0.05 0.1 0.3 3) in
            Array.iteri
              (fun i j ->
                Alcotest.(check bool)
                  (Printf.sprintf "member %d point %d bit-exact" rid i)
                  true
                  (Int64.bits_of_float own.(i) = Int64.bits_of_float g.Coalesce.grid.(j)))
              idx)
          g.Coalesce.members);
    case "disjoint vg ranges stay separate" (fun () ->
        let groups = Coalesce.plan [ box 0 0.05 0.0 0.1 3; box 1 0.05 0.5 0.6 3 ] in
        Alcotest.(check int) "two groups" 2 (List.length groups));
    case "transitive overlap chains into one group" (fun () ->
        let groups =
          Coalesce.plan [ box 0 0.05 0.0 0.2 3; box 1 0.05 0.4 0.6 3; box 2 0.05 0.15 0.45 3 ]
        in
        Alcotest.(check int) "bridge merges all three" 1 (List.length groups);
        Alcotest.(check int) "three members" 3
          (List.length (List.hd groups).Coalesce.members));
    case "different drain biases never share a run" (fun () ->
        let groups = Coalesce.plan [ box 0 0.05 0.0 0.2 3; box 1 0.25 0.0 0.2 3 ] in
        Alcotest.(check int) "one group per vd" 2 (List.length groups);
        Alcotest.(check (list (float 0.0))) "ordered by vd" [ 0.05; 0.25 ]
          (List.map (fun g -> g.Coalesce.vd) groups));
    case "every rid appears in exactly one group" (fun () ->
        let boxes = List.init 7 (fun i -> box i 0.05 (0.05 *. float_of_int i) (0.05 *. float_of_int i +. 0.12) 3) in
        let groups = Coalesce.plan boxes in
        let rids =
          List.concat_map (fun g -> List.map fst g.Coalesce.members) groups
        in
        Alcotest.(check (list int)) "partition" [ 0; 1; 2; 3; 4; 5; 6 ]
          (List.sort compare rids));
    case "grid_of_box guards its box" (fun () ->
        Alcotest.check_raises "points" (Invalid_argument "Coalesce.grid_of_box: points = 1, need >= 2")
          (fun () -> ignore (Coalesce.grid_of_box (box 0 0.05 0.0 0.2 1)));
        Alcotest.check_raises "empty range"
          (Invalid_argument "Coalesce.grid_of_box: vg_min = 0.2, vg_max = 0.2, need vg_min < vg_max")
          (fun () -> ignore (Coalesce.grid_of_box (box 0 0.05 0.2 0.2 3))));
  ]

(* --- persistent store ------------------------------------------------- *)

let store_tests =
  [
    case "payloads round-trip, overwrite and persist across reopen" (fun () ->
        let dir = scratch_dir "store" in
        let s = Store.open_store ~flush_threshold:1 ~dir () in
        Alcotest.(check (option string)) "empty store misses" None
          (Store.find s ~name:"t" ~key:"a");
        Store.add s ~name:"t" ~key:"a" "payload-1";
        Alcotest.(check (option string)) "written then found" (Some "payload-1")
          (Store.find s ~name:"t" ~key:"a");
        Store.add s ~name:"t" ~key:"a" "payload-2";
        Alcotest.(check (option string)) "last write wins" (Some "payload-2")
          (Store.find s ~name:"t" ~key:"a");
        Alcotest.(check (option string)) "same key, other table, misses" None
          (Store.find s ~name:"u" ~key:"a");
        Store.close s;
        let s2 = Store.open_store ~dir () in
        Alcotest.(check (option string)) "survives reopen" (Some "payload-2")
          (Store.find s2 ~name:"t" ~key:"a");
        Alcotest.(check int) "one record on disk" 1 (Store.entry_count s2);
        Store.close s2);
    case "write-behind queues until flush" (fun () ->
        let dir = scratch_dir "store-wb" in
        let s = Store.open_store ~flush_threshold:100 ~dir () in
        Store.add s ~name:"t" ~key:"a" "v";
        Alcotest.(check int) "pending, not on disk" 1 (Store.pending s);
        Alcotest.(check int) "no disk record yet" 0 (Store.entry_count s);
        Alcotest.(check (option string)) "but its own add is visible" (Some "v")
          (Store.find s ~name:"t" ~key:"a");
        Store.flush s;
        Alcotest.(check int) "drained" 0 (Store.pending s);
        Alcotest.(check int) "record landed" 1 (Store.entry_count s);
        Store.close s);
    case "float codecs are bit-exact, including NaN and -0." (fun () ->
        let specials =
          [ 0.0; -0.0; 1.0 /. 3.0; Float.nan; Float.infinity; Float.neg_infinity;
            4.9e-324; Float.max_float ]
        in
        List.iter
          (fun f ->
            match Store.floats_codec.Store.decode (Store.floats_codec.Store.encode [| f |]) with
            | Some [| f' |] ->
              Alcotest.(check bool)
                (Printf.sprintf "%h round-trips bit-exactly" f)
                true
                (Int64.bits_of_float f = Int64.bits_of_float f')
            | Some _ | None -> Alcotest.failf "%h failed to decode" f)
          specials;
        let a = Array.of_list specials in
        (match Store.floats_codec.Store.decode (Store.floats_codec.Store.encode a) with
        | Some a' ->
          Alcotest.(check bool) "array round-trips bit-exactly" true
            (Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a a')
        | None -> Alcotest.fail "array failed to decode");
        Alcotest.(check bool) "malformed hex is a miss" true
          (Store.floats_codec.Store.decode "1 zz" = None);
        Alcotest.(check bool) "truncated array is a miss" true
          (Store.floats_codec.Store.decode "3 0000000000000000" = None));
    case "a corrupted record reads as a miss, not an error" (fun () ->
        let dir = scratch_dir "store-corrupt" in
        let s = Store.open_store ~flush_threshold:1 ~dir () in
        Store.add s ~name:"t" ~key:"a" "good";
        (* Find and truncate the record file on disk. *)
        let record =
          List.concat_map
            (fun sub ->
              let p = Filename.concat dir sub in
              if String.length sub = 2 && Sys.is_directory p then
                List.map (Filename.concat p) (Array.to_list (Sys.readdir p))
              else [])
            (Array.to_list (Sys.readdir dir))
        in
        (match record with
        | [ path ] -> Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "subscale-store/1\ngarbage")
        | l -> Alcotest.failf "expected 1 record file, found %d" (List.length l));
        Alcotest.(check (option string)) "torn record is a miss" None
          (Store.find s ~name:"t" ~key:"a");
        Store.close s);
    case "a foreign version stamp is refused" (fun () ->
        let dir = scratch_dir "store-version" in
        Out_channel.with_open_bin (Filename.concat dir "VERSION") (fun oc ->
            Out_channel.output_string oc "subscale-store/999\n");
        match Store.open_store ~dir () with
        | _ -> Alcotest.fail "opened a store with a foreign stamp"
        | exception Failure msg ->
          Alcotest.(check bool) "names both versions" true
            (String.length msg > 0));
    case "memo store tier: restart answers bit-identically without recompute" (fun () ->
        let dir = scratch_dir "store-memo" in
        let computes = ref 0 in
        let compute () = incr computes; [| Float.nan; -0.0; 1.0 /. 3.0 |] in
        (* First process lifetime: compute, write behind. *)
        let s1 = Store.open_store ~flush_threshold:1 ~dir () in
        let t1 : float array Memo.t = Memo.create ~name:"test.store-tier" () in
        Memo.attach_store t1 ~store:s1 ~codec:Store.floats_codec;
        let cold = Memo.find_or_compute t1 ~key:"k" compute in
        Alcotest.(check int) "cold computes" 1 !computes;
        Alcotest.(check int) "miss recorded" 1 (Memo.misses t1);
        Store.close s1;
        (* Second lifetime: fresh table, reopened store. *)
        let s2 = Store.open_store ~dir () in
        let t2 : float array Memo.t = Memo.create ~name:"test.store-tier" () in
        Memo.attach_store t2 ~store:s2 ~codec:Store.floats_codec;
        let warm = Memo.find_or_compute t2 ~key:"k" compute in
        Alcotest.(check int) "store hit computes nothing" 1 !computes;
        Alcotest.(check int) "store hit recorded" 1 (Memo.store_hits t2);
        Alcotest.(check int) "not a miss" 0 (Memo.misses t2);
        Alcotest.(check bool) "bit-identical across restart (NaN and -0. included)" true
          (Array.for_all2
             (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
             cold warm);
        Alcotest.(check int) "now cached in memory" 1
          (Memo.find_or_compute t2 ~key:"k" (fun () -> [||]) |> Array.length |> fun n ->
           if n = 3 then 1 else 0);
        Store.close s2);
  ]

(* --- the answer cache -------------------------------------------------- *)

let request line =
  match Protocol.parse_request line with
  | Ok { Protocol.req; _ } -> req
  | Error msg -> Alcotest.failf "%s: %s" line msg

let idvg_line vd =
  Printf.sprintf
    {|{"op":"idvg","node":90,"strategy":"sub","vd":%.17g,"vg_min":0.0,"vg_max":0.2,"points":3,"nx":16,"ny":12}|}
    vd

(* A body is kept on its request's second answer: [keep] answers twice. *)
let keep t req body =
  Answer_cache.add t req body;
  Answer_cache.add t req body

let answer_cache_tests =
  [
    case "keys compare floats by their bits" (fun () ->
        let t = Answer_cache.create ~budget:4096 in
        let vd = 0.05 in
        keep t (request (idvg_line vd)) "a";
        Alcotest.(check (option string)) "the same request" (Some "a")
          (Answer_cache.find t (request (idvg_line vd)));
        Alcotest.(check (option string)) "vd one ulp up" None
          (Answer_cache.find t (request (idvg_line (Float.succ vd))));
        keep t (request (idvg_line (Float.succ vd))) "b";
        Alcotest.(check (option string)) "its own entry" (Some "b")
          (Answer_cache.find t (request (idvg_line (Float.succ vd))));
        let tcad vdd = request (Printf.sprintf {|{"op":"tcad","node":90,"strategy":"sub","vdd":%s}|} vdd) in
        (match tcad "-0.0" with
        | Protocol.Tcad { vdd; _ } ->
          Alcotest.(check bool) "the parser keeps -0.0" true (Float.sign_bit vdd)
        | _ -> Alcotest.fail "not a tcad request");
        keep t (tcad "0.0") "plus";
        Alcotest.(check (option string)) "-0.0 is not 0.0" None (Answer_cache.find t (tcad "-0.0"));
        keep t (tcad "-0.0") "minus";
        Alcotest.(check (list (option string))) "two entries" [ Some "plus"; Some "minus" ]
          [ Answer_cache.find t (tcad "0.0"); Answer_cache.find t (tcad "-0.0") ]);
    case "a body is kept on its request's second answer" (fun () ->
        let t = Answer_cache.create ~budget:4096 in
        let req = request (idvg_line 0.05) in
        Answer_cache.add t req "first";
        Alcotest.(check (option string)) "a first answer is a sighting" None (Answer_cache.find t req);
        Answer_cache.add t req "second";
        Alcotest.(check (option string)) "the second is kept" (Some "second")
          (Answer_cache.find t req);
        Answer_cache.add t req "third";
        Alcotest.(check (option string)) "a kept body stays" (Some "second")
          (Answer_cache.find t req));
    case "a body over the budget clears the table first" (fun () ->
        (* A sighting counts 192 bytes: two sightings and ten bytes of
           bodies fill this budget. *)
        let t = Answer_cache.create ~budget:((2 * 192) + 10) in
        let dev node = request (Printf.sprintf {|{"op":"device","node":%d,"strategy":"sub"}|} node) in
        keep t (dev 90) "123456";
        keep t (dev 65) "1234";
        Alcotest.(check (list (option string))) "ten bytes fit" [ Some "123456"; Some "1234" ]
          [ Answer_cache.find t (dev 90); Answer_cache.find t (dev 65) ];
        keep t (dev 45) "1";
        Alcotest.(check (list (option string))) "a third sighting clears the rest"
          [ None; None; Some "1" ]
          [ Answer_cache.find t (dev 90); Answer_cache.find t (dev 65); Answer_cache.find t (dev 45) ];
        keep t (dev 32) (String.make ((2 * 192) + 11) '1');
        Alcotest.(check (list (option string))) "a body alone over the budget is not kept"
          [ None; Some "1" ]
          [ Answer_cache.find t (dev 32); Answer_cache.find t (dev 45) ]);
  ]

(* --- daemon end-to-end ------------------------------------------------ *)

(* Run the server in a domain, hand the test a connected line client. *)
let with_server ?cache_dir f =
  let dir = scratch_dir "serve-sock" in
  let path = Filename.concat dir "s.sock" in
  let ready = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Server.run
          ~on_ready:(fun _ -> Atomic.set ready true)
          { Server.listen = `Unix path; cache_dir })
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  in
  let send fd lines = ignore (Unix.write_substring fd (String.concat "" (List.map (fun l -> l ^ "\n") lines)) 0 (String.length (String.concat "" (List.map (fun l -> l ^ "\n") lines)))) in
  let recv =
    let bufs = Hashtbl.create 4 in
    fun fd ->
      let buf =
        match Hashtbl.find_opt bufs fd with
        | Some b -> b
        | None ->
          let b = Buffer.create 256 in
          Hashtbl.add bufs fd b;
          b
      in
      let bytes = Bytes.create 4096 in
      let rec go () =
        let text = Buffer.contents buf in
        match String.index_opt text '\n' with
        | Some i ->
          Buffer.clear buf;
          Buffer.add_substring buf text (i + 1) (String.length text - i - 1);
          String.sub text 0 i
        | None ->
          let n = Unix.read fd bytes 0 4096 in
          if n = 0 then Alcotest.fail "server closed the connection";
          Buffer.add_subbytes buf bytes 0 n;
          go ()
      in
      go ()
  in
  let result = f ~connect ~send ~recv in
  Domain.join server;
  result

(* A daemon on [path] in a domain of its own, and its shutdown. *)
let spawn_daemon path ~on_ready =
  Domain.spawn (fun () ->
      Server.run ~on_ready:(fun _ -> on_ready ()) { Server.listen = `Unix path; cache_dir = None })

let shut_down path server =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let line = {|{"op":"shutdown"}|} ^ "\n" in
  ignore (Unix.write_substring fd line 0 (String.length line));
  ignore (Unix.read fd (Bytes.create 256) 0 256);
  Unix.close fd;
  Domain.join server

let expect_ok line =
  match Json.parse_exn line with
  | j ->
    (match Json.field "ok" j with
    | Json.Bool true -> j
    | _ -> Alcotest.failf "not an ok response: %s" line)
  | exception Json.Bad msg -> Alcotest.failf "bad response %s: %s" line msg

(* A response's bytes after its id, checking the head and the id before
   them. *)
let after_id ~id response =
  let head = {|{"ok":true|} ^ match id with None -> "" | Some id -> {|,"id":|} ^ id in
  let n = String.length head in
  if String.length response < n || String.sub response 0 n <> head then
    Alcotest.failf "expected a response starting %s, got %s" head response;
  String.sub response n (String.length response - n)

(* [fields] is a request object without its closing brace. *)
let with_id fields = function None -> fields ^ "}" | Some id -> fields ^ {|,"id":|} ^ id ^ "}"

let answer_hits () = Test_util.counter_value "serve.answer_hits"

let serve_tests =
  [
    slow_case "daemon: a repeated request is answered from the cache, same bytes" (fun () ->
        with_server (fun ~connect ~send ~recv ->
            let fd = connect () in
            let ask fields id =
              send fd [ with_id fields id ];
              after_id ~id (recv fd)
            in
            List.iter
              (fun fields ->
                let before = answer_hits () in
                let full = ask fields (Some "1") in
                ignore (expect_ok ({|{"ok":true|} ^ full));
                Alcotest.(check string) (fields ^ ": the second answer") full (ask fields (Some "1"));
                Alcotest.(check int) (fields ^ ": the first two answers take the full path") before
                  (answer_hits ());
                Alcotest.(check string) (fields ^ ": a string id") full (ask fields (Some {|"s"|}));
                Alcotest.(check string) (fields ^ ": no id") full (ask fields None);
                Alcotest.(check int) (fields ^ ": one hit per repeat") (before + 2) (answer_hits ()))
              [ {|{"op":"device","node":90,"strategy":"sub"|};
                {|{"op":"tcad","node":90,"strategy":"sub","vdd":0.9,"nx":16,"ny":12|};
                {|{"op":"idvg","node":90,"strategy":"sub","vd":0.05,"vg_min":0.0,"vg_max":0.2,"points":3,"nx":16,"ny":12|} ];
            send fd [ {|{"op":"shutdown"}|} ];
            ignore (expect_ok (recv fd));
            Unix.close fd));
    slow_case "daemon: a one-off idvg body is not kept, a repeated one is" (fun () ->
        with_server (fun ~connect ~send ~recv ->
            let fd = connect () in
            let ask line =
              send fd [ line ];
              let response = recv fd in
              ignore (expect_ok response);
              response
            in
            let line = idvg_line 0.07 in
            let hits = answer_hits () in
            let first = ask line in
            Alcotest.(check string) "asked again: the same bytes" first (ask line);
            Alcotest.(check int) "the one-off body was not kept" hits (answer_hits ());
            Alcotest.(check string) "asked a third time: the same bytes" first (ask line);
            Alcotest.(check int) "the repeated one is answered from the cache" (hits + 1)
              (answer_hits ());
            send fd [ {|{"op":"shutdown"}|} ];
            ignore (expect_ok (recv fd));
            Unix.close fd));
    slow_case "daemon: near-equal, coalesced and failed requests are not cached" (fun () ->
        with_server (fun ~connect ~send ~recv ->
            let fd = connect () in
            let ask lines =
              send fd lines;
              List.map (fun _ -> recv fd) lines
            in
            let hits = answer_hits () in
            (* vd one ulp apart: two requests, two full paths. *)
            List.iter
              (fun line -> List.iter (fun r -> ignore (expect_ok r)) (ask [ line ]))
              [ idvg_line 0.05; idvg_line (Float.succ 0.05) ];
            Alcotest.(check int) "one ulp apart misses" hits (answer_hits ());
            (* Two overlapping boxes in one batch coalesce; a member's answer
               depends on its batch, so the box alone takes the full path,
               and only its second answer alone is cached. *)
            let box vg_min vg_max =
              Printf.sprintf
                {|{"op":"idvg","node":90,"strategy":"sub","vd":0.1,"vg_min":%g,"vg_max":%g,"points":3,"nx":16,"ny":12}|}
                vg_min vg_max
            in
            List.iter (fun r -> ignore (expect_ok r)) (ask [ box 0.0 0.2; box 0.1 0.3 ]);
            List.iter (fun r -> ignore (expect_ok r)) (ask [ box 0.0 0.2 ]);
            List.iter (fun r -> ignore (expect_ok r)) (ask [ box 0.0 0.2 ]);
            Alcotest.(check int) "a coalesced member is not cached" hits (answer_hits ());
            List.iter (fun r -> ignore (expect_ok r)) (ask [ box 0.0 0.2 ]);
            Alcotest.(check int) "the box asked alone twice is" (hits + 1) (answer_hits ());
            let errors = Test_util.counter_value "serve.errors" in
            List.iter
              (fun line ->
                match Json.field "ok" (Json.parse_exn line) with
                | Json.Bool false -> ()
                | _ -> Alcotest.failf "unknown node answered: %s" line)
              (ask [ {|{"op":"device","node":14,"strategy":"sub"}|} ]
              @ ask [ {|{"op":"device","node":14,"strategy":"sub"}|} ]);
            Alcotest.(check int) "two error responses" (errors + 2)
              (Test_util.counter_value "serve.errors");
            Alcotest.(check int) "errors are not cached" (hits + 1) (answer_hits ());
            send fd [ {|{"op":"shutdown"}|} ];
            ignore (expect_ok (recv fd));
            Unix.close fd));
    slow_case "daemon: inline ops, compute ops and shutdown over a socket" (fun () ->
        Memo.clear_all ();
        with_server (fun ~connect ~send ~recv ->
            let fd = connect () in
            send fd [ {|{"op":"ping","id":1}|} ];
            let pong = expect_ok (recv fd) in
            Alcotest.(check bool) "id echoed" true (Json.field "id" pong = Json.Num 1.0);
            send fd [ {|{"op":"device","node":90,"strategy":"sub","id":2}|} ];
            let dev = expect_ok (recv fd) in
            Alcotest.(check bool) "evaluation has ss" true
              (Json.as_number "ss" (Json.field "ss" dev) > 0.0);
            send fd [ {|{"op":"device","node":14,"strategy":"sub"}|} ];
            (match Json.field "ok" (Json.parse_exn (recv fd)) with
            | Json.Bool false -> ()
            | _ -> Alcotest.fail "unknown node should error");
            (* A degenerate sweep box must come back as an error response,
               not crash the planner (and the daemon with it). *)
            send fd
              [ {|{"op":"idvg","node":90,"strategy":"sub","vd":0.05,"vg_min":0.0,"vg_max":0.3,"points":1,"id":3}|} ];
            let bad = Json.parse_exn (recv fd) in
            (match (Json.field "ok" bad, Json.field "error" bad) with
            | Json.Bool false, Json.Str msg ->
              Alcotest.(check string) "planner guard reaches the client"
                "Coalesce.grid_of_box: points = 1, need >= 2" msg
            | _ -> Alcotest.failf "degenerate box not rejected: %s" (Json.render bad));
            send fd [ {|{"op":"ping","id":4}|} ];
            ignore (expect_ok (recv fd));
            (* Two overlapping Id-Vg boxes written in one packet arrive in
               one batch and coalesce into a single warm-started run. *)
            let idvg vg_min vg_max id =
              Printf.sprintf
                {|{"op":"idvg","node":90,"strategy":"sub","vd":0.05,"vg_min":%g,"vg_max":%g,"points":3,"nx":24,"ny":20,"id":%d}|}
                vg_min vg_max id
            in
            send fd [ idvg 0.0 0.2 10; idvg 0.1 0.3 11 ];
            let r1 = expect_ok (recv fd) in
            let r2 = expect_ok (recv fd) in
            Alcotest.(check bool) "responses in request order" true
              (Json.field "id" r1 = Json.Num 10.0 && Json.field "id" r2 = Json.Num 11.0);
            let vgs r =
              List.map (Json.as_number "vg") (Json.as_list "vgs" (Json.field "vgs" r))
            in
            Alcotest.(check (list (float 0.0))) "first box got its own grid"
              (Array.to_list (Subscale.Numerics.Vec.linspace 0.0 0.2 3))
              (vgs r1);
            Alcotest.(check (list (float 0.0))) "second box got its own grid"
              (Array.to_list (Subscale.Numerics.Vec.linspace 0.1 0.3 3))
              (vgs r2);
            let idvg_stat =
              List.find
                (fun (s : Memo.stats) -> s.Memo.name = "serve.idvg")
                (Memo.stats ())
            in
            Alcotest.(check int) "one coalesced solve for both boxes" 1
              idvg_stat.Memo.misses;
            send fd [ {|{"op":"shutdown"}|} ];
            ignore (expect_ok (recv fd));
            Unix.close fd));
    case "daemon: every error response counts in serve.errors" (fun () ->
        with_server (fun ~connect ~send ~recv ->
            let fd = connect () in
            (* One batch: a malformed line, a device and a tcad request on an
               unknown node, and a degenerate sweep box. *)
            let lines =
              [ {|{"op":|};
                {|{"op":"device","node":14,"strategy":"sub"}|};
                {|{"op":"tcad","node":14,"strategy":"sub"}|};
                {|{"op":"idvg","node":90,"strategy":"sub","vd":0.05,"vg_min":0.0,"vg_max":0.3,"points":1}|} ]
            in
            let before = Test_util.counter_value "serve.errors" in
            send fd lines;
            List.iter
              (fun line ->
                match Json.field "ok" (Json.parse_exn (recv fd)) with
                | Json.Bool false -> ()
                | _ -> Alcotest.failf "not an error response for %s" line)
              lines;
            Alcotest.(check int) "one count per error response" (before + 4)
              (Test_util.counter_value "serve.errors");
            send fd [ {|{"op":"shutdown"}|} ];
            ignore (expect_ok (recv fd));
            Unix.close fd));
    slow_case "daemon: identical device requests in one batch share one evaluation"
      (fun () ->
        Memo.clear_all ();
        (* Selecting the sub-V_th device fans out over its L_poly grid, so
           it is selected before the daemon starts: the daemon's only miss
           is the evaluation. *)
        (match Subscale.Scaling.Strategy.resolve ~node:90 ~strategy:"sub" with
        | Ok _ -> ()
        | Error msg -> Alcotest.fail msg);
        let fanouts = Test_util.counter_value "exec.map.fanouts" in
        with_server (fun ~connect ~send ~recv ->
            let fd = connect () in
            let dev = {|{"op":"device","node":90,"strategy":"sub","id":1}|} in
            send fd [ dev; {|{"op":"device","node":14,"strategy":"sub","id":2}|}; dev ];
            let first = recv fd in
            let unknown = Json.parse_exn (recv fd) in
            let second = recv fd in
            ignore (expect_ok first);
            Alcotest.(check string) "byte-identical bodies" first second;
            Alcotest.(check bool) "the unknown node errors on its own slot" true
              (Json.field "ok" unknown = Json.Bool false && Json.field "id" unknown = Json.Num 2.0);
            let evaluate =
              List.find
                (fun (s : Memo.stats) -> s.Memo.name = "scaling.evaluate")
                (Memo.stats ())
            in
            Alcotest.(check (pair int int)) "one evaluation (misses, hits)" (1, 0)
              (evaluate.Memo.misses, evaluate.Memo.hits);
            send fd [ {|{"op":"shutdown"}|} ];
            ignore (expect_ok (recv fd));
            Unix.close fd);
        Alcotest.(check int) "device misses compute on the loop" fanouts
          (Test_util.counter_value "exec.map.fanouts"));
    slow_case "daemon: restarted process answers from the store, bit-identically"
      (fun () ->
        Memo.clear_all ();
        let cache_dir = scratch_dir "serve-cache" in
        let query =
          {|{"op":"tcad","node":90,"strategy":"sub","vdd":0.9,"nx":24,"ny":20,"id":1}|}
        in
        let run_once () =
          with_server ~cache_dir (fun ~connect ~send ~recv ->
              let fd = connect () in
              send fd [ query ];
              let response = recv fd in
              send fd [ {|{"op":"health"}|} ];
              let health = expect_ok (recv fd) in
              send fd [ {|{"op":"shutdown"}|} ];
              ignore (expect_ok (recv fd));
              Unix.close fd;
              (response, health))
        in
        let cold_response, cold_health = run_once () in
        ignore (expect_ok cold_response);
        (* Drop the in-memory tier: a restarted daemon has fresh tables. *)
        Memo.clear_all ();
        let warm_response, warm_health = run_once () in
        Alcotest.(check string) "same bytes as the cold compute" cold_response
          warm_response;
        let memo_row health name field =
          Json.as_list "memo" (Json.field "memo" health)
          |> List.find_map (fun row ->
                 if Json.field "name" row = Json.Str name then
                   Some (Json.as_int field (Json.field field row))
                 else None)
          |> Option.get
        in
        Alcotest.(check int) "cold run computed" 1
          (memo_row cold_health "tcad.characterize" "misses");
        (* The restarted daemon resolves the device from the store too:
           one store hit per table, nothing recomputed in either. *)
        List.iter
          (fun table ->
            Alcotest.(check int) (table ^ ": restarted run hit the store") 1
              (memo_row warm_health table "store_hits");
            Alcotest.(check int) (table ^ ": restarted run recomputed nothing") 0
              (memo_row warm_health table "misses"))
          [ "tcad.characterize"; "scaling.select" ];
        let store_field health f =
          Json.as_int f (Json.field f (Json.field "store" health))
        in
        Alcotest.(check int) "store served two hits" 2 (store_field warm_health "hits");
        Alcotest.(check bool) "store kept its record" true
          (store_field warm_health "entries" >= 1);
        (* write-behind visibility: the cold run's record reached disk
           through at least one drained batch, with nothing left queued *)
        Alcotest.(check bool) "cold run drained a batch" true
          (store_field cold_health "flushes" >= 1);
        Alcotest.(check int) "nothing left queued" 0
          (store_field cold_health "pending"));
    slow_case "daemon: a restarted daemon answers from the store without the pool"
      (fun () ->
        Memo.clear_all ();
        let cache_dir = scratch_dir "serve-restart" in
        (* tcad and idvg go in one write, so they arrive as one batch of
           two jobs: handing hits to the pool would fan them out. *)
        let batches =
          [ [ {|{"op":"device","node":90,"strategy":"sub","id":1}|} ];
            [ {|{"op":"tcad","node":90,"strategy":"sub","vdd":0.9,"nx":16,"ny":12,"id":2}|};
              {|{"op":"idvg","node":90,"strategy":"sub","vd":0.05,"vg_min":0.0,"vg_max":0.2,"points":3,"nx":16,"ny":12,"id":3}|} ] ]
        in
        let session () =
          with_server ~cache_dir (fun ~connect ~send ~recv ->
              let fd = connect () in
              let answers =
                List.concat_map
                  (fun batch ->
                    send fd batch;
                    List.map (fun _ -> recv fd) batch)
                  batches
              in
              send fd [ {|{"op":"health"}|} ];
              let health = expect_ok (recv fd) in
              send fd [ {|{"op":"shutdown"}|} ];
              ignore (expect_ok (recv fd));
              Unix.close fd;
              (answers, health))
        in
        let fanouts () = Test_util.counter_value "exec.map.fanouts" in
        let cold, _ = session () in
        List.iter (fun a -> ignore (expect_ok a)) cold;
        (* Drop the in-memory tier: a restarted daemon has fresh tables. *)
        Memo.clear_all ();
        let before = fanouts () in
        let warm, warm_health = session () in
        Alcotest.(check int) "the restarted daemon never fanned out" before (fanouts ());
        Alcotest.(check (list string)) "same bytes as the cold answers" cold warm;
        List.iter
          (fun (table, expected) ->
            let misses =
              Json.as_list "memo" (Json.field "memo" warm_health)
              |> List.find_map (fun row ->
                     if Json.field "name" row = Json.Str table then
                       Some (Json.as_int "misses" (Json.field "misses" row))
                     else None)
            in
            Alcotest.(check (option int)) (table ^ ": misses") (Some expected) misses)
          (* scaling.evaluate is memory-only: its miss recomputes on the loop *)
          [ ("scaling.select", 0); ("tcad.characterize", 0); ("serve.idvg", 0);
            ("scaling.evaluate", 1) ]);
    slow_case "daemon: a pooled miss reads the store once" (fun () ->
        Memo.clear_all ();
        (* The device is selected before the daemon starts, so the only
           table the request misses is tcad.characterize. *)
        (match Subscale.Scaling.Strategy.resolve ~node:90 ~strategy:"super" with
        | Ok _ -> ()
        | Error msg -> Alcotest.fail msg);
        let store_misses =
          with_server ~cache_dir:(scratch_dir "serve-miss") (fun ~connect ~send ~recv ->
              let fd = connect () in
              send fd
                [ {|{"op":"tcad","node":90,"strategy":"super","vdd":0.9,"nx":4,"ny":9,"id":1}|} ];
              ignore (expect_ok (recv fd));
              send fd [ {|{"op":"health"}|} ];
              let health = expect_ok (recv fd) in
              send fd [ {|{"op":"shutdown"}|} ];
              ignore (expect_ok (recv fd));
              Unix.close fd;
              Json.as_int "misses" (Json.field "misses" (Json.field "store" health)))
        in
        Alcotest.(check int) "one store read for one miss" 1 store_misses);
    case "daemon: hostile input gets error responses, not a dead daemon" (fun () ->
        with_server (fun ~connect ~send ~recv ->
            let fd = connect () in
            let expect_error line =
              send fd [ line ];
              match Json.field "ok" (Json.parse_exn (recv fd)) with
              | Json.Bool false -> ()
              | _ -> Alcotest.failf "hostile line was accepted: %s" line
            in
            (* Failure out of the \u decoder used to escape the parse
               step and kill the daemon. *)
            expect_error {|{"op":"ping","id":"\uZZZZ"}|};
            (* ... as did Stack_overflow out of the reader ... *)
            expect_error (String.make 100_000 '[');
            (* ... and nx = 0 reaching the mesher as a division by zero
               inside run_job, past its solver-only exception guard. *)
            expect_error {|{"op":"tcad","node":90,"strategy":"sub","nx":0,"id":2}|};
            expect_error
              {|{"op":"idvg","node":90,"strategy":"sub","vd":0.05,"vg_min":0.0,"vg_max":0.3,"points":100000}|};
            (* A connection that streams an unterminated line past the
               cap is dropped — and only that connection. *)
            let hog = connect () in
            (try send hog [ String.make (2 * 1024 * 1024) 'x' ] with
            | Unix.Unix_error (_, _, _) -> ());
            (let b = Bytes.create 1 in
             match Unix.read hog b 0 1 with
             | 0 -> ()
             | _ -> Alcotest.fail "oversized-line connection not dropped"
             | exception Unix.Unix_error (_, _, _) -> ());
            Unix.close hog;
            (* The daemon is still alive and serving. *)
            send fd [ {|{"op":"ping","id":9}|} ];
            let pong = expect_ok (recv fd) in
            Alcotest.(check bool) "id echoed after the assault" true
              (Json.field "id" pong = Json.Num 9.0);
            send fd [ {|{"op":"shutdown"}|} ];
            ignore (expect_ok (recv fd));
            Unix.close fd));
    case "daemon: a non-socket at the socket path is refused, not deleted" (fun () ->
        let dir = scratch_dir "serve-guard" in
        let path = Filename.concat dir "precious.txt" in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc "not a socket");
        (match Server.run { Server.listen = `Unix path; cache_dir = None } with
        | () -> Alcotest.fail "served on top of a regular file"
        | exception Failure msg ->
          Alcotest.(check bool) "refusal names the path" true (contains ~sub:path msg));
        Alcotest.(check bool) "the file survives" true (Sys.file_exists path);
        Alcotest.(check string) "with its bytes intact" "not a socket"
          (In_channel.with_open_bin path In_channel.input_all));
    case "daemon: the loop runs on the task-sized minor heap" (fun () ->
        (* The loop holds one batch's temporaries, like a pool worker a
           task's, so it serves on the same heap; the daemon's domain
           reports its heap once run has returned. *)
        let path = Filename.concat (scratch_dir "serve-heap") "s.sock" in
        let ready = Atomic.make false in
        let server =
          Domain.spawn (fun () ->
              let before = (Gc.get ()).Gc.minor_heap_size in
              Server.run
                ~on_ready:(fun _ -> Atomic.set ready true)
                { Server.listen = `Unix path; cache_dir = None };
              (before, (Gc.get ()).Gc.minor_heap_size))
        in
        while not (Atomic.get ready) do
          Domain.cpu_relax ()
        done;
        let before, serving = shut_down path server in
        Alcotest.(check bool) "the domain started on a larger heap" true
          (before > Subscale.Exec.Pool.task_minor_heap_words);
        Alcotest.(check int) "and served on the pool's task heap"
          Subscale.Exec.Pool.task_minor_heap_words serving);
    case "daemon: a refused start leaves the caller's heap at its size" (fun () ->
        (* Both refusals come before the loop would shrink its heap: a
           regular file at the path, and a live daemon on it. *)
        let caller = (Gc.get ()).Gc.minor_heap_size in
        let refused what path =
          (match Server.run { Server.listen = `Unix path; cache_dir = None } with
          | () -> Alcotest.failf "%s: served" what
          | exception Failure _ -> ());
          Alcotest.(check int) what caller (Gc.get ()).Gc.minor_heap_size
        in
        let dir = scratch_dir "serve-heap-refused" in
        let file = Filename.concat dir "file.txt" in
        Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc "x");
        refused "a regular file at the path" file;
        let path = Filename.concat dir "s.sock" in
        let ready = Atomic.make false in
        let server = spawn_daemon path ~on_ready:(fun () -> Atomic.set ready true) in
        while not (Atomic.get ready) do
          Domain.cpu_relax ()
        done;
        refused "a live daemon on the path" path;
        shut_down path server);
    case "daemon: a stale socket file is replaced, a live one is refused" (fun () ->
        let dir = scratch_dir "serve-stale" in
        let path = Filename.concat dir "s.sock" in
        (* A crashed daemon's leftover: a bound socket file nobody is
           listening on. *)
        let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind stale (Unix.ADDR_UNIX path);
        Unix.close stale;
        let ready = Atomic.make false in
        let server = spawn_daemon path ~on_ready:(fun () -> Atomic.set ready true) in
        while not (Atomic.get ready) do
          Domain.cpu_relax ()
        done;
        (* Now that a daemon IS listening, a second instance must refuse
           to yank its socket. *)
        (match Server.run { Server.listen = `Unix path; cache_dir = None } with
        | () -> Alcotest.fail "second daemon stole a live socket"
        | exception Failure msg ->
          Alcotest.(check bool) "refusal names the live daemon" true
            (contains ~sub:"already listening" msg));
        shut_down path server);
    case "daemon: the socket file appears only once the daemon listens" (fun () ->
        (* A client may wait for the socket file and connect at once (CI's
           serve smoke test does): that first connect must never be
           refused.  Repeated starts give a bind-before-listen window many
           chances to show. *)
        let path = Filename.concat (scratch_dir "serve-ready") "s.sock" in
        let connect () =
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          match Unix.connect fd (Unix.ADDR_UNIX path) with
          | () -> Ok fd
          | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
            Unix.close fd;
            Error ()
        in
        let refused = ref 0 in
        for _ = 1 to 500 do
          let server =
            Domain.spawn (fun () ->
                Server.run { Server.listen = `Unix path; cache_dir = None })
          in
          while not (Sys.file_exists path) do
            Domain.cpu_relax ()
          done;
          let rec retry () =
            match connect () with
            | Ok fd -> fd
            | Error () -> Domain.cpu_relax (); retry ()
          in
          let fd =
            match connect () with
            | Ok fd -> fd
            | Error () -> incr refused; retry ()
          in
          let line = {|{"op":"shutdown"}|} ^ "\n" in
          ignore (Unix.write_substring fd line 0 (String.length line));
          let b = Bytes.create 256 in
          ignore (Unix.read fd b 0 256);
          Unix.close fd;
          Domain.join server
        done;
        Alcotest.(check int) "first connects refused" 0 !refused);
    slow_case "daemon: tcad answers name the mesh, not its line counts" (fun () ->
        (* On the 90 nm super device, (4, 9) and (4, 10) build meshes with
           the same line counts and different coordinates.  Asked on one
           connection in either order, each answer must be the bytes of its
           own cold solve. *)
        let query ny =
          Printf.sprintf
            {|{"op":"tcad","node":90,"strategy":"super","vdd":0.9,"nx":4,"ny":%d,"id":%d}|}
            ny ny
        in
        let ask order =
          Memo.clear_all ();
          with_server (fun ~connect ~send ~recv ->
              let fd = connect () in
              let answers =
                List.map
                  (fun ny ->
                    send fd [ query ny ];
                    (ny, recv fd))
                  order
              in
              send fd [ {|{"op":"shutdown"}|} ];
              ignore (expect_ok (recv fd));
              Unix.close fd;
              answers)
        in
        let forward = ask [ 9; 10 ] in
        let backward = ask [ 10; 9 ] in
        List.iter
          (fun ny ->
            let answer = List.assoc ny forward in
            ignore (expect_ok answer);
            Alcotest.(check string) (Printf.sprintf "(4, %d)" ny) (List.assoc ny backward)
              answer)
          [ 9; 10 ]);
    case "daemon: 1-byte writes and shared writes answer as whole lines" (fun () ->
        (* The reader scans only newly read bytes, so a line split over
           many reads, and two lines in one read, must still come out as
           the same requests. *)
        with_server (fun ~connect ~send ~recv ->
            let fd = connect () in
            let requests =
              [ {|{"op":"ping","id":1}|}; {|{"op":"device","node":90,"strategy":"sub","id":2}|} ]
            in
            let whole =
              List.map
                (fun r ->
                  send fd [ r ];
                  recv fd)
                requests
            in
            let trickled =
              List.map
                (fun r ->
                  String.iter
                    (fun ch -> ignore (Unix.write_substring fd (String.make 1 ch) 0 1))
                    (r ^ "\n");
                  recv fd)
                requests
            in
            send fd requests;
            let shared = List.map (fun _ -> recv fd) requests in
            List.iter (fun line -> ignore (expect_ok line)) whole;
            Alcotest.(check (list string)) "1-byte writes" whole trickled;
            Alcotest.(check (list string)) "two requests in one write" whole shared;
            send fd [ {|{"op":"shutdown"}|} ];
            ignore (expect_ok (recv fd));
            Unix.close fd));
  ]

(* Warm work: what a repeated query costs once its answer is cached.  A
   key and a lookup are a few thousand minor words at most; re-selecting
   the sub-V_th device (7.8k words) or building the 16x12 structure (43k)
   per request fails these bounds instead of showing only in RSS.  The
   warm path never reaches the pool, so the counts are a pure function of
   the code. *)
let warm_minor_words f =
  f ();
  let minor0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. minor0

(* The minor words the daemon's domain allocates per request of [line]
   at depth 1, once [prime] has been answered: a session of [n] requests
   less a session of none, over [n].  A first session warms the memo
   tables, so both measured sessions answer [prime] from them. *)
let daemon_words_per_request ~prime line n =
  let session n =
    let path = Filename.concat (scratch_dir "serve-words") "s.sock" in
    let ready = Atomic.make false in
    let server =
      Domain.spawn (fun () ->
          let start = ref 0.0 in
          Server.run
            ~on_ready:(fun _ ->
              start := Gc.minor_words ();
              Atomic.set ready true)
            { Server.listen = `Unix path; cache_dir = None };
          Gc.minor_words () -. !start)
    in
    while not (Atomic.get ready) do
      Domain.cpu_relax ()
    done;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    let ic = Unix.in_channel_of_descr fd in
    let ask line =
      ignore (Unix.write_substring fd (line ^ "\n") 0 (String.length line + 1));
      ignore (expect_ok (input_line ic))
    in
    List.iter ask prime;
    for _ = 1 to n do
      ask line
    done;
    ask {|{"op":"shutdown"}|};
    Unix.close fd;
    Domain.join server
  in
  ignore (session 0);
  let idle = session 0 in
  (session n -. idle) /. float_of_int n

let warm_queries =
  [ ("ping", {|{"op":"ping","id":7}|}, 339.0);
    ("device", {|{"op":"device","node":90,"strategy":"sub","id":7}|}, 489.0);
    ("tcad", {|{"op":"tcad","node":90,"strategy":"sub","vdd":0.9,"nx":16,"ny":12,"id":7}|}, 623.0);
    ( "idvg",
      {|{"op":"idvg","node":90,"strategy":"sub","vd":0.05,"vg_min":0.0,"vg_max":0.2,"points":3,"nx":16,"ny":12,"id":7}|},
      745.0 ) ]

let warm_work_tests =
  [
    slow_case "repeated warm requests cost the daemon a parse and a splice" (fun () ->
        (* Measured: ping 339 words, device 489, tcad 623, idvg 745 (the
           longer the line and the answer, the more the parse and the
           splice cost).  With every answer rendered again from a memo
           hit, a fresh table of responses per batch and a copy of each
           answer to add its newline: 545, 1,428, 2,070 and 2,476. *)
        List.iter
          (fun (op, line, measured) ->
            Test_util.check_in_range (op ^ ": minor words per request") ~lo:0.0
              ~hi:(1.05 *. measured)
              (daemon_words_per_request ~prime:[ line ] line 200))
          warm_queries);
    case "a warm device query selects and evaluates from the memo" (fun () ->
        let words =
          warm_minor_words (fun () ->
              match Subscale.Scaling.Strategy.resolve ~node:90 ~strategy:"sub" with
              | Ok (node, kind, _, _) ->
                ignore
                  (Subscale.Scaling.Strategy.evaluate kind node
                    : Subscale.Scaling.Strategy.evaluation)
              | Error msg -> Alcotest.fail msg)
        in
        (* Measured: 328 words, the two (kind, node) keys and lookups;
           with keys built by List.map and String.concat, 1,260;
           selecting and keying the full evaluation on each request took
           60.6k. *)
        Test_util.check_in_range "minor words" ~lo:0.0 ~hi:(1.05 *. 328.0) words);
    case "a warm characterization builds no structure" (fun () ->
        let desc =
          match Subscale.Scaling.Strategy.resolve ~node:90 ~strategy:"sub" with
          | Ok (_, _, _, pair) ->
            Subscale.Device.Compact.to_tcad_description pair.Subscale.Circuits.Inverter.nfet
          | Error msg -> Alcotest.fail msg
        in
        let words =
          warm_minor_words (fun () ->
              ignore (Test_util.characterize_cached ~nx:16 ~ny:12 desc : Extract.characteristics))
        in
        (* Measured: 681 words, the mesh lines and the key (1.2 KB);
           with the lines in lists and the key concatenated from them,
           4,756; building the structure to key it took 48.5k. *)
        Test_util.check_in_range "minor words" ~lo:0.0 ~hi:(1.05 *. 681.0) words);
    case "a warm sweep's key costs its bytes" (fun () ->
        let desc =
          match Subscale.Scaling.Strategy.resolve ~node:45 ~strategy:"sub" with
          | Ok (_, _, _, pair) ->
            Subscale.Device.Compact.to_tcad_description pair.Subscale.Circuits.Inverter.nfet
          | Error msg -> Alcotest.fail msg
        in
        let vgs = Subscale.Numerics.Vec.linspace 0.3 0.45 5 in
        let words =
          warm_minor_words (fun () ->
              ignore (Extract.sweep_key ~nx:16 ~ny:12 desc ~vd:0.05 vgs : string))
        in
        (* Measured: 680 words, the mesh lines, the 1.2 KB key and the
           grid's floats; with the grid and the lines joined through
           lists, 4,800. *)
        Test_util.check_in_range "minor words" ~lo:0.0 ~hi:(1.05 *. 680.0) words);
  ]

let suite =
  [
    ("serve.protocol", protocol_tests);
    ("serve.coalesce", coalesce_tests);
    ("serve.store", store_tests);
    ("serve.answer-cache", answer_cache_tests);
    ("serve.daemon", serve_tests);
    ("serve.warm-work", warm_work_tests);
  ]
