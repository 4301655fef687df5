(* Grandfathered findings.

   One entry per line:

     <rule> <file>:<line> — justification

   Entries match on (rule, file, line) — the column is deliberately
   ignored so unrelated edits on the same line don't churn the file — and
   every entry must keep matching something: stale entries are reported,
   so the baseline shrinks monotonically as findings get fixed. *)

module D = Check.Diagnostic

type entry = { rule : string; file : string; line : int; note : string }
type t = entry list

let parse_location s =
  (* "file:line" or "file:line:col" *)
  match String.split_on_char ':' s with
  | [ file; line ] | [ file; line; _ ] ->
    (match int_of_string_opt line with Some l -> Some (file, l) | None -> None)
  | _ -> None

exception Malformed of int * string

let of_string text =
  let entries = ref [] in
  List.iteri
    (fun i line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then
        match String.index_opt line ' ' with
        | None -> raise (Malformed (i + 1, line))
        | Some sp ->
          let rule = String.sub line 0 sp in
          let rest = String.trim (String.sub line sp (String.length line - sp)) in
          let loc_str, note =
            match String.index_opt rest ' ' with
            | None -> (rest, "")
            | Some sp2 ->
              ( String.sub rest 0 sp2,
                String.trim (String.sub rest sp2 (String.length rest - sp2)) )
          in
          (match parse_location loc_str with
           | Some (file, l) -> entries := { rule; file; line = l; note } :: !entries
           | None -> raise (Malformed (i + 1, line))))
    (String.split_on_char '\n' text);
  List.rev !entries

let load path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let text = really_input_string ic n in
    close_in ic;
    of_string text
  end

let header =
  "# subscale_lint baseline — grandfathered findings, one per line:\n\
   #   <rule> <file>:<line> — justification\n\
   # Matching ignores the column; stale entries fail `subscale_lint --strict`.\n"

(* [--update-baseline] stamps unjustified entries with a "— TODO: justify"
   note; [--strict] refuses to treat those as justified keeps, so a
   regenerated baseline cannot silently launder findings. *)
let is_todo e =
  let has_prefix p = String.length e.note >= String.length p && String.sub e.note 0 (String.length p) = p in
  has_prefix "TODO" || has_prefix "— TODO" || has_prefix "- TODO"

let todos t = List.filter is_todo t

let entry_to_string e =
  Printf.sprintf "%s %s:%d%s" e.rule e.file e.line
    (if e.note = "" then "" else " " ^ e.note)

let to_string entries =
  header ^ String.concat "" (List.map (fun e -> entry_to_string e ^ "\n") entries)

let diag_key (d : D.t) =
  match parse_location d.D.location with
  | Some (file, line) -> Some (d.D.rule, file, line)
  | None -> None

let entry_of_diag (d : D.t) =
  match diag_key d with
  | Some (rule, file, line) -> Some { rule; file; line; note = "" }
  | None -> None

type application = {
  kept : D.t list;        (* findings not covered by the baseline *)
  suppressed : D.t list;  (* findings the baseline grandfathers *)
  stale : entry list;     (* entries that matched nothing this run *)
}

let apply (baseline : t) diags =
  let matched : (entry, unit) Hashtbl.t = Hashtbl.create 16 in
  let covered d =
    match diag_key d with
    | None -> None
    | Some (rule, file, line) ->
      List.find_opt
        (fun e -> e.rule = rule && e.file = file && e.line = line)
        baseline
  in
  let kept, suppressed =
    List.partition_map
      (fun d ->
        match covered d with
        | Some e ->
          Hashtbl.replace matched e ();
          Right d
        | None -> Left d)
      diags
  in
  let stale = List.filter (fun e -> not (Hashtbl.mem matched e)) baseline in
  { kept; suppressed; stale }
