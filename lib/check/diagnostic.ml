type severity = Error | Warning | Info

type t = {
  rule : string;
  severity : severity;
  location : string;
  message : string;
  hint : string option;
}

let make ?hint ~rule ~severity ~location message =
  { rule; severity; location; message; hint }

let error ?hint ~rule ~location message = make ?hint ~rule ~severity:Error ~location message
let warning ?hint ~rule ~location message =
  make ?hint ~rule ~severity:Warning ~location message
let info ~rule ~location message = make ~rule ~severity:Info ~location message

let severity_label = function Error -> "error" | Warning -> "warning" | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

(* Errors first, then by rule id, then by location: stable, scriptable
   output order regardless of rule evaluation order. *)
let compare a b =
  let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else begin
    let c = String.compare a.rule b.rule in
    if c <> 0 then c else String.compare a.location b.location
  end

let sort diags = List.stable_sort compare diags

let count diags =
  List.fold_left
    (fun (e, w, i) d ->
      match d.severity with
      | Error -> (e + 1, w, i)
      | Warning -> (e, w + 1, i)
      | Info -> (e, w, i + 1))
    (0, 0, 0) diags

let has_errors diags = List.exists (fun d -> d.severity = Error) diags

let to_string d =
  let base =
    Printf.sprintf "%s[%s] %s: %s" (severity_label d.severity) d.rule d.location d.message
  in
  match d.hint with None -> base | Some h -> base ^ " (hint: " ^ h ^ ")"

let summary diags =
  let e, w, i = count diags in
  if e = 0 && w = 0 && i = 0 then "clean"
  else Printf.sprintf "%d error(s), %d warning(s), %d info" e w i

(* Exit-code policy for the CLI: errors are fatal, warnings are not (use
   [has_errors] on warnings too if a caller wants --strict behaviour). *)
let exit_code diags = if has_errors diags then 1 else 0
