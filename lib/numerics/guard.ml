(* Non-finite guard.  Disabled by default: every check is a single flag
   load on the fast path.  When enabled, the first NaN/infinity seen is
   reported with its origin (solver entry/exit point) and element index,
   which turns a silent NaN propagating through a Gummel loop or an MNA
   solve into an immediate, located failure. *)

exception Non_finite of { origin : string; index : int option; value : float }

let () =
  Printexc.register_printer (function
    | Non_finite { origin; index; value } ->
      let where =
        match index with None -> origin | Some i -> Printf.sprintf "%s[%d]" origin i
      in
      Some (Printf.sprintf "Numerics.Guard.Non_finite(%s = %h)" where value)
    | _ -> None)

let enabled = ref false

let is_enabled () = !enabled

let with_guard f =
  let previous = !enabled in
  enabled := true;
  Fun.protect ~finally:(fun () -> enabled := previous) f

let float ~origin v =
  if !enabled && not (Float.is_finite v) then
    raise (Non_finite { origin; index = None; value = v });
  v

let vec ~origin v =
  if !enabled then begin
    let n = Array.length v in
    for i = 0 to n - 1 do
      if not (Float.is_finite v.(i)) then
        raise (Non_finite { origin; index = Some i; value = v.(i) })
    done
  end;
  v

let fvec ~origin (v : Fvec.t) =
  if !enabled then begin
    let n = Fvec.length v in
    for i = 0 to n - 1 do
      let x = Fvec.unsafe_get v i in
      if not (Float.is_finite x) then
        raise (Non_finite { origin; index = Some i; value = x })
    done
  end;
  v
