(* Persistent content-addressed tier behind Memo.  See store.mli for the
   on-disk layout and durability contract. *)

type 'a codec = { encode : 'a -> string; decode : string -> 'a option }

let magic = "subscale-store/1"
let shards = 256

type t = {
  dir : string;
  flush_threshold : int;
  locks : Mutex.t array; (* one per shard directory *)
  pending : (string * string, string) Hashtbl.t; (* (name, key) -> payload *)
  writing : (string * string, string) Hashtbl.t; (* taken by a drain, not yet written *)
  pending_lock : Mutex.t; (* guards pending and writing *)
  closed : bool Atomic.t; (* read unlocked by check_open on every operation *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  writes : int Atomic.t;
  flushes : int Atomic.t; (* drained write-behind batches *)
}

(* Process-wide counter for unique temp-file names; the pid component
   keeps two processes sharing a cache directory from colliding. *)
let tmp_seq = Atomic.make 0

let check_open t ~ctx =
  if Atomic.get t.closed then
    failwith (Printf.sprintf "Store.%s: store %s is closed" ctx t.dir)

(* --- paths ------------------------------------------------------------ *)

let digest ~name ~key = Digest.to_hex (Digest.string (name ^ "\x00" ^ key))

let shard_of_digest hex = int_of_string ("0x" ^ String.sub hex 0 2)

let shard_dir t hex = Filename.concat t.dir (String.sub hex 0 2)

let entry_path t hex = Filename.concat (shard_dir t hex) hex

let mkdir_p path =
  if not (Sys.file_exists path) then
    match Sys.mkdir path 0o755 with
    | () -> ()
    | exception Sys_error _ when Sys.file_exists path ->
      (* lost a create race to another domain/process: fine *)
      ()

(* --- record format ---------------------------------------------------- *)

(* magic \n, then three length-prefixed sections (name, key, value):
   "<decimal length>\n<bytes>\n".  The name and key are stored in full so
   an MD5 collision decodes as a miss, never as a wrong answer. *)

let encode_record ~name ~key payload =
  let buf = Buffer.create (String.length payload + 64) in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  List.iter
    (fun s ->
      Buffer.add_string buf (string_of_int (String.length s));
      Buffer.add_char buf '\n';
      Buffer.add_string buf s;
      Buffer.add_char buf '\n')
    [ name; key; payload ];
  Buffer.contents buf

let decode_record text =
  let n = String.length text in
  let section pos =
    match String.index_from_opt text pos '\n' with
    | None -> None
    | Some nl -> (
      match int_of_string_opt (String.sub text pos (nl - pos)) with
      | Some len when len >= 0 && nl + 1 + len < n && text.[nl + 1 + len] = '\n' ->
        Some (String.sub text (nl + 1) len, nl + 2 + len)
      | Some _ | None -> None)
  in
  let ml = String.length magic in
  if n < ml + 1 || String.sub text 0 ml <> magic || text.[ml] <> '\n' then None
  else
    match section (ml + 1) with
    | None -> None
    | Some (name, p1) -> (
      match section p1 with
      | None -> None
      | Some (key, p2) -> (
        match section p2 with
        | Some (payload, p3) when p3 = n -> Some (name, key, payload)
        | Some _ | None -> None))

(* --- disk I/O (caller holds the shard lock) --------------------------- *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Some text
  | exception Sys_error _ -> None

(* IO under the shard lock is the design: the lock serializes same-shard
   writers around the tmp-write + rename pair. *)
let[@blocking_ok] write_entry t ~name ~key payload =
  let hex = digest ~name ~key in
  let dir = shard_dir t hex in
  mkdir_p dir;
  let tmp =
    Filename.concat dir
      (Printf.sprintf "%s.tmp.%d.%d" hex (Unix.getpid ())
         (Atomic.fetch_and_add tmp_seq 1))
  in
  let lock = t.locks.(shard_of_digest hex) in
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      Out_channel.with_open_bin tmp (fun oc ->
          Out_channel.output_string oc (encode_record ~name ~key payload));
      Sys.rename tmp (entry_path t hex));
  Atomic.incr t.writes

let[@blocking_ok] read_entry t ~name ~key =
  let hex = digest ~name ~key in
  let path = entry_path t hex in
  let lock = t.locks.(shard_of_digest hex) in
  Mutex.lock lock;
  let text =
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) (fun () -> read_file path)
  in
  match text with
  | None -> None
  | Some text -> (
    match decode_record text with
    | Some (name', key', payload) when name' = name && key' = key -> Some payload
    | Some _ | None ->
      (* hash collision or torn/foreign record: a miss, not an error *)
      None)

(* --- write-behind queue ----------------------------------------------- *)

(* A drained record stays in [writing], where [find] still sees it,
   until its batch has been written or has failed; then it is dropped
   unless a newer drain of the same key has replaced it.  Releasing
   takes [pending_lock] only after the shard locks are back, so the two
   are never nested. *)
let take_pending t =
  Mutex.protect t.pending_lock (fun () ->
      let batch = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.pending [] in
      List.iter (fun (k, v) -> Hashtbl.replace t.writing k v) batch;
      Hashtbl.reset t.pending;
      batch)

let release t batch =
  Mutex.protect t.pending_lock (fun () ->
      List.iter
        (fun (k, payload) ->
          match Hashtbl.find_opt t.writing k with
          | Some p when p == payload -> Hashtbl.remove t.writing k
          | Some _ | None -> ())
        batch)

let drain t batch =
  if batch <> [] then
    Fun.protect
      ~finally:(fun () -> release t batch)
      (fun () ->
        List.iter (fun ((name, key), payload) -> write_entry t ~name ~key payload) batch;
        Atomic.incr t.flushes)

let flush t =
  check_open t ~ctx:"flush";
  drain t (take_pending t)

let add t ~name ~key payload =
  check_open t ~ctx:"add";
  let n =
    Mutex.protect t.pending_lock (fun () ->
        Hashtbl.replace t.pending (name, key) payload;
        Hashtbl.length t.pending)
  in
  if n >= t.flush_threshold then drain t (take_pending t)

let find t ~name ~key =
  check_open t ~ctx:"find";
  let queued =
    Mutex.protect t.pending_lock (fun () ->
        match Hashtbl.find_opt t.pending (name, key) with
        | Some _ as v -> v
        | None -> Hashtbl.find_opt t.writing (name, key))
  in
  let found =
    match queued with Some _ as v -> v | None -> read_entry t ~name ~key
  in
  (match found with
  | Some _ -> Atomic.incr t.hits
  | None -> Atomic.incr t.misses);
  found

let close t =
  (* exchange claims the close exactly once even under concurrent calls *)
  if not (Atomic.exchange t.closed true) then drain t (take_pending t)

(* --- lifecycle -------------------------------------------------------- *)

let version_path dir = Filename.concat dir "VERSION"

let stamp_version dir =
  let path = version_path dir in
  match In_channel.with_open_bin path In_channel.input_all with
  | stamp ->
    let stamp = String.trim stamp in
    if stamp <> magic then
      failwith
        (Printf.sprintf "Store.open_store: %s is stamped %S, want %S" dir stamp magic)
  | exception Sys_error _ ->
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (magic ^ "\n"))

let open_store ?(flush_threshold = 16) ~dir () =
  if flush_threshold < 1 then
    invalid_arg
      (Printf.sprintf "Store.open_store: flush_threshold = %d, need >= 1" flush_threshold);
  mkdir_p dir;
  stamp_version dir;
  let t =
    {
      dir;
      flush_threshold;
      locks = Array.init shards (fun _ -> Mutex.create ());
      pending = Hashtbl.create 32;
      writing = Hashtbl.create 32;
      pending_lock = Mutex.create ();
      closed = Atomic.make false;
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      writes = Atomic.make 0;
      flushes = Atomic.make 0;
    }
  in
  (* Pending records must survive a normal exit even if the caller never
     reaches close; a failing disk at exit is not worth a crash. *)
  at_exit (fun () ->
      if not (Atomic.get t.closed) then
        match close t with () -> () | exception Sys_error _ -> ());
  t

let dir t = t.dir

let entry_count t =
  let count = ref 0 in
  let subdirs = match Sys.readdir t.dir with a -> a | exception Sys_error _ -> [||] in
  Array.iter
    (fun sub ->
      let path = Filename.concat t.dir sub in
      if String.length sub = 2 && Sys.is_directory path then
        Array.iter
          (fun entry ->
            if not (String.contains entry '.') then incr count)
          (match Sys.readdir path with a -> a | exception Sys_error _ -> [||]))
    subdirs;
  !count

let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses
let writes t = Atomic.get t.writes
let flushes t = Atomic.get t.flushes

let pending t = Mutex.protect t.pending_lock (fun () -> Hashtbl.length t.pending)

(* --- codecs ----------------------------------------------------------- *)

(* Same convention as Key.float: 16 hex chars of the IEEE-754 bits, so
   NaN and -0. round-trip bit-exactly. *)
let float_hex f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

let float_unhex s =
  if String.length s = 16 then
    match Int64.of_string_opt ("0x" ^ s) with
    | Some bits -> Some (Int64.float_of_bits bits)
    | None -> None
  else None

let floats_codec =
  {
    encode =
      (fun a ->
        let buf = Buffer.create ((Array.length a * 17) + 8) in
        Buffer.add_string buf (string_of_int (Array.length a));
        Array.iter
          (fun f ->
            Buffer.add_char buf ' ';
            Buffer.add_string buf (float_hex f))
          a;
        Buffer.contents buf);
    decode =
      (fun s ->
        match String.split_on_char ' ' s with
        | [] -> None
        | len :: rest -> (
          match int_of_string_opt len with
          | Some n when n >= 0 && n = List.length rest ->
            let out = Array.make n 0.0 in
            let ok = ref true in
            List.iteri
              (fun i hex ->
                match float_unhex hex with
                | Some f -> out.(i) <- f
                | None -> ok := false)
              rest;
            if !ok then Some out else None
          | Some _ | None -> None));
  }

(* A version tag in front of the payload, so a record written by another
   layout decodes as a miss instead of a shifted field. *)
let tagged tag codec =
  {
    encode = (fun a -> tag ^ ":" ^ codec.encode a);
    decode =
      (fun s ->
        let tl = String.length tag in
        if String.length s > tl + 1 && String.sub s 0 tl = tag && s.[tl] = ':' then
          codec.decode (String.sub s (tl + 1) (String.length s - tl - 1))
        else None);
  }
