type edge = Rising | Falling | Either

let crossings ~times ~values ~level edge =
  let n = Array.length times in
  if n <> Array.length values then invalid_arg "Waveform.crossings: length mismatch";
  let acc = ref [] in
  for i = 0 to n - 2 do
    let d0 = values.(i) -. level and d1 = values.(i + 1) -. level in
    if d0 *. d1 < 0.0 || (Float.equal d0 0.0 && not (Float.equal d1 0.0)) then begin
      let direction_ok =
        match edge with
        | Rising -> d1 > d0
        | Falling -> d1 < d0
        | Either -> true
      in
      if direction_ok then begin
        let t = d0 /. (d0 -. d1) in
        acc := (times.(i) +. (t *. (times.(i + 1) -. times.(i)))) :: !acc
      end
    end
  done;
  List.rev !acc

let first_crossing ?(after = neg_infinity) ~times ~values ~level edge =
  crossings ~times ~values ~level edge |> List.find_opt (fun t -> t >= after)

let propagation_delay ~times ~input ~output ~level ~input_edge =
  match first_crossing ~times ~values:input ~level input_edge with
  | None -> None
  | Some t_in ->
    (match first_crossing ~after:t_in ~times ~values:output ~level Either with
     | None -> None
     | Some t_out -> Some (t_out -. t_in))

let slice_average ~times ~values ~t0 ~t1 =
  let n = Array.length times in
  if n <> Array.length values then invalid_arg "Waveform.slice_average: length mismatch";
  let t0 = Float.max t0 times.(0) and t1 = Float.min t1 times.(n - 1) in
  if t1 <= t0 then invalid_arg "Waveform.slice_average: empty window";
  let value_at t = Numerics.Interp.linear times values t in
  let ts = ref [] and vs = ref [] in
  ts := [ t0 ];
  vs := [ value_at t0 ];
  for i = 0 to n - 1 do
    if times.(i) > t0 && times.(i) < t1 then begin
      ts := times.(i) :: !ts;
      vs := values.(i) :: !vs
    end
  done;
  ts := t1 :: !ts;
  vs := value_at t1 :: !vs;
  let ta = Array.of_list (List.rev !ts) and va = Array.of_list (List.rev !vs) in
  Numerics.Integrate.trapezoid_samples ta va /. (t1 -. t0)
