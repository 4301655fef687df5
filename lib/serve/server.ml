(* The serving loop.  Single-threaded event loop over Unix.select.  A
   request answered before, from a job keyed by that request alone, is
   answered from the answer cache as it is parsed; a job whose value a
   memo or the store already holds is answered on the loop; only TCAD
   misses fan out over the shared Exec pool, one task per coalesced job,
   so the daemon parallelizes across queries while each TCAD run stays
   sequential (and therefore bit-reproducible).  A daemon that only
   answers cached queries never creates the pool. *)

module Json = Report.Json

type config = {
  listen : [ `Unix of string | `Tcp of string * int ];
  cache_dir : string option;
}

(* The in-memory tier for coalesced Id-Vg sweeps, keyed by the structure
   (description and mesh coordinates), drain bias and the exact gate grid. *)
let idvg_memo : Tcad.Extract.sweep Exec.Memo.t = Exec.Memo.create ~name:"serve.idvg" ()

let requests_counter = Obs.Metrics.counter "serve.requests"
let errors_counter = Obs.Metrics.counter "serve.errors"
let coalesced_counter = Obs.Metrics.counter "serve.coalesced"
let answer_hits_counter = Obs.Metrics.counter "serve.answer_hits"

(* The answer cache's budget: the bytes of the bodies it holds.  Clearing
   it costs only the full path from the memo for what it held. *)
let answer_budget = 1 lsl 20

(* Every error response is built here, so [serve.errors] counts each one. *)
let error_response ~id msg =
  Obs.Metrics.incr errors_counter;
  Protocol.error_response ~id msg

(* --- device resolution ------------------------------------------------ *)

(* The TCAD description of the selected NFET.  A request's structure is
   built only by a memo miss: its keys name it by this description and the
   mesh lines ([Tcad.Structure.key_for]). *)
let description ~node ~strategy =
  Result.map
    (fun (_, _, _, pair) -> Device.Compact.to_tcad_description pair.Circuits.Inverter.nfet)
    (Scaling.Strategy.resolve ~node ~strategy)

(* --- response payloads ------------------------------------------------ *)

let num f = Json.Num f
let arr_of_floats a = Json.Arr (Array.to_list (Array.map num a))

let evaluation_fields (e : Scaling.Strategy.evaluation) =
  [ ("node", num (float_of_int e.Scaling.Strategy.node.Scaling.Roadmap.nm));
    ("strategy", Json.Str (Scaling.Strategy.kind_name e.Scaling.Strategy.kind));
    ("ss", num e.Scaling.Strategy.ss);
    ("vth_sat", num e.Scaling.Strategy.vth_sat);
    ("ioff_nominal", num e.Scaling.Strategy.ioff_nominal);
    ("ion_sub", num e.Scaling.Strategy.ion_sub);
    ("on_off_sub", num e.Scaling.Strategy.on_off_sub);
    ("snm_sub", num e.Scaling.Strategy.snm_sub);
    ("delay_sub", num e.Scaling.Strategy.delay_sub);
    ("vmin", num e.Scaling.Strategy.vmin);
    ("energy_at_vmin", num e.Scaling.Strategy.energy_at_vmin) ]

let characteristics_fields (c : Tcad.Extract.characteristics) =
  [ ("ss", num c.Tcad.Extract.ss);
    ("vth_lin", num c.Tcad.Extract.vth_lin);
    ("vth_sat", num c.Tcad.Extract.vth_sat);
    ("dibl", num c.Tcad.Extract.dibl);
    ("ioff", num c.Tcad.Extract.ioff);
    ("ion_sub", num c.Tcad.Extract.ion_sub);
    ("on_off_ratio_sub", num c.Tcad.Extract.on_off_ratio_sub);
    ("leff", num c.Tcad.Extract.leff) ]

let metric_json = function
  | Obs.Metrics.Counter n -> num (float_of_int n)
  | Obs.Metrics.Gauge g -> num g
  | Obs.Metrics.Histogram h ->
    Json.Obj
      [ ("count", num (float_of_int h.Obs.Metrics.count));
        ("sum", num h.Obs.Metrics.sum);
        ("min", num h.Obs.Metrics.min);
        ("max", num h.Obs.Metrics.max) ]

let health_fields store =
  let metrics =
    List.map (fun (name, v) -> (name, metric_json v)) (Obs.Metrics.snapshot ())
  in
  let memo =
    List.map
      (fun (s : Exec.Memo.stats) ->
        Json.Obj
          [ ("name", Json.Str s.Exec.Memo.name);
            ("hits", num (float_of_int s.Exec.Memo.hits));
            ("misses", num (float_of_int s.Exec.Memo.misses));
            ("store_hits", num (float_of_int s.Exec.Memo.store_hits));
            ("size", num (float_of_int s.Exec.Memo.size)) ])
      (Exec.Memo.stats ())
  in
  let store_fields =
    match store with
    | None -> []
    | Some s ->
      [ ( "store",
          Json.Obj
            [ ("dir", Json.Str (Exec.Store.dir s));
              ("hits", num (float_of_int (Exec.Store.hits s)));
              ("misses", num (float_of_int (Exec.Store.misses s)));
              ("writes", num (float_of_int (Exec.Store.writes s)));
              ("pending", num (float_of_int (Exec.Store.pending s)));
              ("flushes", num (float_of_int (Exec.Store.flushes s)));
              ("entries", num (float_of_int (Exec.Store.entry_count s))) ] ) ]
  in
  [ ("metrics", Json.Obj metrics); ("memo", Json.Arr memo) ] @ store_fields

(* --- compute jobs ----------------------------------------------------- *)

(* Where an answer goes: the request's position in its batch (responses
   are written back in batch order), its echoed id, and the request, the
   answer cache's key. *)
type slot = { pos : int; echo : Json.t; req : Protocol.request }

type job =
  | J_dev of { node : int; strategy : string; slots : slot list }
  | J_char of {
      node : int;
      strategy : string;
      vdd : float;
      nx : int option;
      ny : int option;
      slots : slot list; (* identical requests in a batch share one job *)
    }
  | J_sweep of {
      node : int;
      strategy : string;
      nx : int option;
      ny : int option;
      vd : float;
      grid : float array;
      members : (slot * int array) list;
    }

let job_slots = function
  | J_dev { slots; _ } | J_char { slots; _ } -> slots
  | J_sweep { members; _ } -> List.map fst members

(* A job's answer for each of its slots: an ok response's body
   ([Protocol.ok_body]), or an error message. *)
type answers = (slot * (string, string) result) list

(* A job's value lives in one memo cell.  [find] answers the job from
   whichever tier holds the value, or is [None]; [compute] fills the cell
   and answers.  Both render through the job's one renderer: the two
   paths differ only in where the value comes from. *)
type cell = {
  find : unit -> answers option;
  compute : unit -> answers;
}

let cell memo ~key ~compute render =
  {
    find = (fun () -> Option.map render (Exec.Memo.find memo ~key));
    compute = (fun () -> render (Exec.Memo.compute memo ~key compute));
  }

(* One body, rendered once, for every slot. *)
let each slots fields v =
  let body = Ok (Protocol.ok_body (fields v)) in
  List.map (fun slot -> (slot, body)) slots

(* Resolves the job's device (a selection: a lookup once a tier holds
   it) and names its cell; a node or strategy the roadmap lacks is an
   [Error]. *)
let cell_of_job job =
  match job with
  | J_dev { node; strategy; slots } ->
    Result.map
      (fun (n, kind, phys, pair) ->
        cell Scaling.Strategy.evaluate_memo
          ~key:(Scaling.Strategy.selection_key kind n)
          ~compute:(fun () -> Scaling.Strategy.evaluate_uncached kind n phys pair)
          (each slots evaluation_fields))
      (Scaling.Strategy.resolve ~node ~strategy)
  | J_char { node; strategy; vdd; nx; ny; slots } ->
    Result.map
      (fun desc ->
        cell Tcad.Extract.characterize_memo
          ~key:(Tcad.Extract.characterize_key ?nx ?ny ~vdd desc)
          ~compute:(fun () -> Tcad.Extract.characterize ~vdd (Tcad.Structure.build ?nx ?ny desc))
          (each slots characteristics_fields))
      (description ~node ~strategy)
  | J_sweep { node; strategy; nx; ny; vd; grid; members } ->
    Result.map
      (fun desc ->
        cell idvg_memo ~key:(Tcad.Extract.sweep_key ?nx ?ny desc ~vd grid)
          ~compute:(fun () ->
            Tcad.Extract.id_vg_at (Tcad.Structure.build ?nx ?ny desc) ~vd ~vgs:grid)
          (fun sweep ->
            List.map
              (fun (slot, idx) ->
                ( slot,
                  Ok
                    (Protocol.ok_body
                       [ ("vd", num vd);
                         ("vgs", arr_of_floats (Array.map (fun i -> sweep.Tcad.Extract.vgs.(i)) idx));
                         ("ids", arr_of_floats (Array.map (fun i -> sweep.Tcad.Extract.ids.(i)) idx)) ])
                ))
              members))
      (description ~node ~strategy)

let failed job msg = List.map (fun slot -> (slot, Error msg)) (job_slots job)

(* The request a job answers alone, if its answers depend on nothing
   else, so the answer cache may keep them: a device evaluation, a
   characterization (named by the job's own fields: a batch groups its
   requests by structural equality, and the cache compares bits), or a
   sweep of one request over that request's whole grid.  A member of a
   coalesced sweep is answered off a grid its batch chose. *)
let request_of_job = function
  | J_dev { node; strategy; _ } -> Some (Protocol.Device { node; strategy })
  | J_char { node; strategy; vdd; nx; ny; _ } -> Some (Protocol.Tcad { node; strategy; vdd; nx; ny })
  | J_sweep { grid; members = [ (slot, idx) ]; _ } when Array.length idx = Array.length grid ->
    Some slot.req
  | J_sweep _ -> None

(* One catch-all around the WHOLE per-job body, on the loop and on the
   pool alike: any failure — mesh keying, structure build (mesher
   guards), solver non-convergence, slope-extraction window, guard trips,
   a decoded value that does not fit its request — must become an error
   response on every slot the job owns.  [Exec.map] propagates exceptions
   like [List.map], so a job that leaks one kills the daemon for all its
   clients. *)
let guarded f = match f () with r -> r | exception e -> Error (Printexc.to_string e)

(* On the select loop: a job whose value some tier holds is answered
   here; a miss comes back with its cell, for [run_job]. *)
let answer_or_miss job =
  match guarded (fun () -> Result.map (fun c -> (c, c.find ())) (cell_of_job job)) with
  | Error msg -> Either.Left (job, failed job msg)
  | Ok (_, Some answers) -> Either.Left (job, answers)
  | Ok (c, None) -> Either.Right (job, c)

(* On the loop (a device) or a pool domain (TCAD): compute a missed value. *)
let run_job (job, c) =
  match guarded (fun () -> Ok (c.compute ())) with
  | Ok answers -> (job, answers)
  | Error msg -> (job, failed job msg)

(* [pairs] grouped by key: one (key, values) per distinct key, keys in
   first-seen order, each key's values in input order. *)
let group pairs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (k, v) -> Hashtbl.replace tbl k (v :: Option.value (Hashtbl.find_opt tbl k) ~default:[]))
    pairs;
  (* a key's first pair takes its values out of the table *)
  List.filter_map
    (fun (k, _) ->
      Option.map
        (fun vs ->
          Hashtbl.remove tbl k;
          (k, List.rev vs))
        (Hashtbl.find_opt tbl k))
    pairs

(* Batch planning: identical device evaluations collapse to one J_dev and
   identical characterizations to one J_char; Id-Vg boxes coalesce per
   device via Coalesce.plan.  Degenerate boxes are rejected here, before
   they can reach the planner, and come back as ready-made error
   answers. *)
let plan_jobs deferred =
  let rejects = ref [] and devs = ref [] and chars = ref [] and boxes = ref [] in
  List.iter
    (fun slot ->
      match slot.req with
      | Protocol.Device { node; strategy } -> devs := ((node, strategy), slot) :: !devs
      | Protocol.Tcad { node; strategy; vdd; nx; ny } ->
        chars := ((node, strategy, vdd, nx, ny), slot) :: !chars
      | Protocol.Idvg { node; strategy; vd; vg_min; vg_max; points; nx; ny } -> (
        let box = { Coalesce.rid = 0; vd; vg_min; vg_max; points } in
        match Coalesce.grid_of_box box with
        | exception Invalid_argument msg ->
          rejects := (slot, Error msg) :: !rejects
        | _ -> boxes := ((node, strategy, nx, ny), (slot, box)) :: !boxes)
      | Protocol.Ping | Protocol.Health | Protocol.Shutdown ->
        (* inline ops never reach the planner *)
        ())
    deferred;
  let dev_jobs =
    List.map
      (fun ((node, strategy), slots) -> J_dev { node; strategy; slots })
      (group (List.rev !devs))
  in
  let char_jobs =
    List.map
      (fun ((node, strategy, vdd, nx, ny), slots) -> J_char { node; strategy; vdd; nx; ny; slots })
      (group (List.rev !chars))
  in
  let sweep_jobs =
    List.concat_map
      (fun ((node, strategy, nx, ny), entries) ->
        let slots = Array.of_list (List.map fst entries) in
        List.map
          (fun { Coalesce.vd; grid; members } ->
            Obs.Metrics.incr ~by:(List.length members - 1) coalesced_counter;
            let members = List.map (fun (rid, idx) -> (slots.(rid), idx)) members in
            J_sweep { node; strategy; nx; ny; vd; grid; members })
          (Coalesce.plan (List.mapi (fun rid (_, box) -> { box with Coalesce.rid }) entries)))
      (group (List.rev !boxes))
  in
  (List.rev !rejects, dev_jobs @ char_jobs @ sweep_jobs)

(* Each slot's response into [responses]; under [key], the job's ok body
   into the answer cache too. *)
let deliver cache responses ~key (answers : answers) =
  List.iter
    (fun (slot, answer) ->
      responses.(slot.pos) <-
        (match answer with
        | Ok body ->
          Option.iter (fun req -> Answer_cache.add cache req body) key;
          Protocol.ok_response_of_body ~id:slot.echo body
        | Error msg -> error_response ~id:slot.echo msg))
    answers

let pong_body = Protocol.ok_body [ ("pong", Json.Bool true) ]

(* --- connection bookkeeping ------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  pending : Buffer.t; (* bytes read, not yet terminated by '\n' *)
  mutable alive : bool;
}

let read_chunk_size = 4096

(* A request line the parser will ever accept is tiny; a connection
   whose unterminated line outgrows this is hostile or broken, and the
   only safe answer is to drop it — buffering an unbounded line is a
   memory DoS. *)
let max_line_length = 1 lsl 20

(* Reads into [chunk], the daemon's one read buffer of [read_chunk_size]
   bytes (the loop is single-threaded, and a chunk per read would go
   straight to the major heap: 4 KB is past the minor heap's size limit),
   and returns the complete lines newly available on [c]; leaves the final
   partial line buffered.  Only the bytes just read are scanned for '\n',
   so a line that arrives in many reads costs time linear in its length.
   Marks the connection dead on EOF, on any read error (ECONNRESET, EIO,
   ETIMEDOUT, ... — to the daemon they are all just "this client is
   gone"; EINTR alone is a retry), and on an oversized line. *)
let read_lines chunk c =
  let n =
    match Unix.read c.fd chunk 0 read_chunk_size with
    | n -> n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> -1
    | exception Unix.Unix_error (_, _, _) -> 0
  in
  if n < 0 then []
  else if n = 0 then begin
    c.alive <- false;
    []
  end
  else begin
    let lines = ref [] in
    let start = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get chunk i = '\n' then begin
        Buffer.add_subbytes c.pending chunk !start (i - !start);
        lines := Buffer.contents c.pending :: !lines;
        Buffer.clear c.pending;
        start := i + 1
      end
    done;
    Buffer.add_subbytes c.pending chunk !start (n - !start);
    if Buffer.length c.pending > max_line_length then c.alive <- false;
    List.rev !lines
  end

(* The daemon's one output buffer: a connection's answers for one batch,
   each followed by its '\n', leave in one write.  A batch whose answers
   outgrow [home] writes from a larger buffer, which is dropped once
   written, so one long sweep does not hold its size for the daemon's
   life. *)
type out = { home : Bytes.t; mutable buf : Bytes.t; mutable len : int }

let out_create () =
  let home = Bytes.create read_chunk_size in
  { home; buf = home; len = 0 }

let out_line o s =
  let n = String.length s in
  let need = o.len + n + 1 in
  if need > Bytes.length o.buf then begin
    let bigger = Bytes.create (Int.max need (2 * Bytes.length o.buf)) in
    Bytes.blit o.buf 0 bigger 0 o.len;
    o.buf <- bigger
  end;
  Bytes.blit_string s 0 o.buf o.len n;
  Bytes.set o.buf (o.len + n) '\n';
  o.len <- need

let out_flush o c =
  let off = ref 0 in
  (* EINTR is a retry; any other write error (EPIPE, ECONNRESET, EIO,
     ...) means this client is gone — and that must never take the
     daemon with it. *)
  (try
     while !off < o.len do
       match Unix.write c.fd o.buf !off (o.len - !off) with
       | n -> off := !off + n
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
     done
   with Unix.Unix_error (_, _, _) -> c.alive <- false);
  o.len <- 0;
  o.buf <- o.home

(* --- the loop --------------------------------------------------------- *)

(* A stale socket file from a crashed daemon is replaced; anything else
   at the path is refused.  Deleting blindly would turn a typo'd
   [--socket] into data loss (an unrelated regular file) or a
   denial-of-service (a live daemon's socket yanked out from under
   it). *)
let prepare_unix_path path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error (_, _, _) -> false
    in
    Unix.close probe;
    if live then
      failwith (Printf.sprintf "subscale serve: a daemon is already listening on %s" path);
    Sys.remove path
  | _ ->
    failwith
      (Printf.sprintf "subscale serve: %s already exists and is not a socket; refusing to delete it"
         path)

(* Returns the listening socket, the address to report, and the cleanup
   to run at shutdown.  A Unix socket is bound and listening under a
   temporary name in the same directory before it is renamed onto [path]:
   binding creates the file, so a client that waits for the file to
   appear and then connects is never refused for being early. *)
let bind_listener = function
  | `Unix path ->
    prepare_unix_path path;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
    let bound = ref false in
    (match
       Unix.bind fd (Unix.ADDR_UNIX tmp);
       bound := true;
       Unix.listen fd 16;
       Unix.rename tmp path
     with
    | () -> ()
    | exception e ->
      Unix.close fd;
      if !bound then Sys.remove tmp;
      raise e);
    (fd, Unix.ADDR_UNIX path, fun () -> if Sys.file_exists path then Sys.remove path)
  | `Tcp (host, port) ->
    let addr =
      if host = "" || host = "localhost" then Unix.inet_addr_loopback
      else Unix.inet_addr_of_string host
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (addr, port));
    Unix.listen fd 16;
    (fd, Unix.getsockname fd, fun () -> ())

let run ?on_ready config =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ ->
    (* some platforms have no SIGPIPE; writes already handle EPIPE *)
    ());
  let listen_fd, bound_addr, cleanup = bind_listener config.listen in
  let store =
    Option.map (fun dir -> Exec.Store.open_store ~dir ()) config.cache_dir
  in
  (match store with
  | Some s ->
    Exec.Memo.attach_store Scaling.Strategy.select_memo ~store:s
      ~codec:Scaling.Strategy.selection_codec;
    Exec.Memo.attach_store Tcad.Extract.characterize_memo ~store:s
      ~codec:Tcad.Extract.characteristics_codec;
    Exec.Memo.attach_store idvg_memo ~store:s ~codec:Tcad.Extract.sweep_codec
  | None -> ());
  (match on_ready with Some f -> f bound_addr | None -> ());
  (* The loop holds one batch's temporaries, and it is also the caller
     lane of [Exec.map], so it gets a task's heap.  Not before the bind,
     so a refused start leaves its caller's heap alone; not before
     [on_ready], because shrinking the heap empties it, and promoting
     what the program's initialization left there takes 0.4-0.7 ms (on
     a 2-vCPU Xeon) that a client waiting to connect would wait for. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = Exec.Pool.task_minor_heap_words };
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let chunk = Bytes.create read_chunk_size in
  let out = out_create () in
  let cache = Answer_cache.create ~budget:answer_budget in
  let running = ref true in
  while !running do
    let fds = listen_fd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
    let readable =
      match Unix.select fds [] [] (-1.0) with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    (* 1. Accept and read: drain every complete line into one batch, each
       connection's lines together and in order. *)
    let batch = ref [] in
    List.iter
      (fun fd ->
        if fd = listen_fd then begin
          match Unix.accept listen_fd with
          | cfd, _ ->
            Hashtbl.replace conns cfd { fd = cfd; pending = Buffer.create 256; alive = true }
          | exception Unix.Unix_error (_, _, _) ->
            (* EINTR, ECONNABORTED, and fd exhaustion (EMFILE/ENFILE)
               are all transient accept failures: skip this round rather
               than kill the daemon for every connected client. *)
            ()
        end
        else
          match Hashtbl.find_opt conns fd with
          | None -> ()
          | Some c -> List.iter (fun line -> batch := (c, line) :: !batch) (read_lines chunk c))
      readable;
    let batch = List.rev !batch in
    (* 2. Parse; answer inline ops and answer-cache hits; queue the rest. *)
    let responses = Array.make (List.length batch) "" in
    let deferred = ref [] in
    List.iteri
      (fun pos (_, line) ->
        Obs.Metrics.incr requests_counter;
        match Protocol.parse_request line with
        | Error msg -> responses.(pos) <- error_response ~id:Json.Null msg
        | Ok { id; req } -> (
          match req with
          | Protocol.Ping -> responses.(pos) <- Protocol.ok_response_of_body ~id pong_body
          | Protocol.Health -> responses.(pos) <- Protocol.ok_response ~id (health_fields store)
          | Protocol.Shutdown ->
            running := false;
            responses.(pos) <- Protocol.ok_response ~id [ ("shutdown", Json.Bool true) ]
          | Protocol.Device _ | Protocol.Tcad _ | Protocol.Idvg _ -> (
            match Answer_cache.find cache req with
            | Some body ->
              Obs.Metrics.incr answer_hits_counter;
              responses.(pos) <- Protocol.ok_response_of_body ~id body
            | None -> deferred := { pos; echo = id; req } :: !deferred)))
      batch;
    (* 3. Answer the rest here.  A device evaluation is a few ms of
       compact-model work, less than creating the pool costs, so its
       misses compute here too; only TCAD misses fan out over the pool
       ([Exec.map] of fewer than two items never touches it).  A job keyed
       by its request alone leaves its answers in the cache. *)
    if !deferred <> [] then begin
      let rejects, jobs = plan_jobs (List.rev !deferred) in
      let hits, misses = List.partition_map answer_or_miss jobs in
      let dev_misses, tcad_misses =
        List.partition (function J_dev _, _ -> true | (J_char _ | J_sweep _), _ -> false) misses
      in
      let computed = List.map run_job dev_misses @ Exec.map run_job tcad_misses in
      deliver cache responses ~key:None rejects;
      List.iter
        (fun (job, answers) -> deliver cache responses ~key:(request_of_job job) answers)
        (hits @ computed)
    end;
    (* 4. Write responses back in request order, each connection's in one
       write. *)
    let rec write_back pos = function
      | [] -> ()
      | (c, _) :: rest ->
        if c.alive then out_line out responses.(pos);
        (match rest with (next, _) :: _ when next == c -> () | _ -> out_flush out c);
        write_back (pos + 1) rest
    in
    write_back 0 batch;
    (match store with Some s -> Exec.Store.flush s | None -> ());
    (* 5. Reap dead connections. *)
    let dead = Hashtbl.fold (fun fd c acc -> if c.alive then acc else fd :: acc) conns [] in
    List.iter
      (fun fd ->
        Hashtbl.remove conns fd;
        match Unix.close fd with
        | () -> ()
        | exception Unix.Unix_error (Unix.EBADF, _, _) -> ())
      dead
  done;
  (match store with
  | Some s ->
    Exec.Memo.detach_store Scaling.Strategy.select_memo;
    Exec.Memo.detach_store Tcad.Extract.characterize_memo;
    Exec.Memo.detach_store idvg_memo;
    Exec.Store.close s
  | None -> ());
  Hashtbl.iter
    (fun fd _ ->
      match Unix.close fd with
      | () -> ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> ())
    conns;
  Unix.close listen_fd;
  cleanup ()
