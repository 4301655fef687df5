(* Process-wide registry of static-analysis rule ids.

   Every rule id in lib/check is minted through [register] at module
   initialization, so two modules claiming the same id, or an id of the
   wrong shape, fail the moment the library is linked rather than
   silently shadowing each other in reports. *)

exception Duplicate_rule of string

let table : (string, unit) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()

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

let register ?summary:_ id =
  if not (well_formed id) then
    invalid_arg (Printf.sprintf "Rules.register: malformed rule id %S" id);
  Mutex.lock lock;
  let dup = Hashtbl.mem table id in
  if not dup then Hashtbl.add table id ();
  Mutex.unlock lock;
  if dup then raise (Duplicate_rule id);
  id
