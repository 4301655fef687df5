(* Process-wide registry of static-analysis rule ids.

   Every rule id in lib/check is minted through [register] at module
   initialization, so two modules claiming the same id collide the moment
   the library is linked rather than silently shadowing each other in
   reports.  [selftest] re-validates the table (count, shape) for the
   [subscale check --selftest] / [subscale audit --selftest] paths. *)

type entry = { id : string; summary : string }

exception Duplicate_rule of string

let table : (string, entry) Hashtbl.t = Hashtbl.create 64
let order : string list ref = ref []
let lock = Mutex.create ()

let register ?(summary = "") id =
  Mutex.lock lock;
  let dup = Hashtbl.mem table id in
  if not dup then begin
    Hashtbl.add table id { id; summary };
    order := id :: !order
  end;
  Mutex.unlock lock;
  if dup then raise (Duplicate_rule id);
  id

let all () =
  (* Hashtbl.find can raise on a table someone mutated behind our back;
     protect the section so the registry lock can never leak (RAC002). *)
  Mutex.protect lock (fun () ->
      List.rev_map (fun id -> Hashtbl.find table id) !order)

(* A well-formed id is either kebab-case ("net-floating-node") or one of
   the prefixed numeric series: "AUD001" (audit), "LNT001" (source lint),
   "UNT001" (unit inference), "ALS001" (buffer ownership/aliasing) or
   "RAC001" (lockset/race analysis). *)
let well_formed id =
  let kebab =
    String.length id > 0
    && String.for_all (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-') id
  in
  let series prefix =
    String.length id = 6
    && String.sub id 0 3 = prefix
    && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub id 3 3)
  in
  kebab || series "AUD" || series "LNT" || series "UNT" || series "ALS"
  || series "RAC"

let selftest () =
  let entries = all () in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if Hashtbl.mem seen e.id then raise (Duplicate_rule e.id);
      Hashtbl.add seen e.id ();
      if not (well_formed e.id) then
        failwith (Printf.sprintf "Rules.selftest: malformed rule id %S" e.id))
    entries;
  List.length entries
