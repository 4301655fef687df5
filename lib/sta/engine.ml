type edge = Rise | Fall

type arrival = { time : float; slew : float }

type report = {
  arrivals_rise : arrival array;
  arrivals_fall : arrival array;
  critical_time : float;
  critical_output : Design.net;
  critical_edge : edge;
  critical_path : (Design.gate * edge) list;
}

(* Provenance of the worst arrival at a net: the driving gate, the input pin
   and the input edge that produced it. *)
type origin = Primary | Through of Design.gate * int * edge

let analyze ?wire_cap (lib : Cell_lib.library) design =
  let n = Design.n_nets design in
  if Design.primary_outputs design = [] then failwith "Engine.analyze: no primary outputs";
  let inv = Cell_lib.find lib Cell_lib.Inv in
  let input_slew = (Lut.slews (inv.Cell_lib.arcs.(0)).Cell_lib.delay_output_rise).(0) in
  let out_load = inv.Cell_lib.input_cap in
  let wire net = match wire_cap with Some f -> f net | None -> 0.0 in
  (* Load per net: fanout input pins + wire + primary-output load. *)
  let load = Array.make n 0.0 in
  for net = 0 to n - 1 do
    load.(net) <- wire net
  done;
  List.iter
    (fun (g : Design.gate) ->
      let cell = Cell_lib.find lib g.Design.cell in
      Array.iter
        (fun i -> load.(i) <- load.(i) +. cell.Cell_lib.input_cap)
        g.Design.inputs)
    (Design.gates design);
  List.iter (fun o -> load.(o) <- load.(o) +. out_load) (Design.primary_outputs design);
  let minus_inf = { time = neg_infinity; slew = input_slew } in
  let rise = Array.make n minus_inf and fall = Array.make n minus_inf in
  let rise_from = Array.make n Primary and fall_from = Array.make n Primary in
  List.iter
    (fun i ->
      rise.(i) <- { time = 0.0; slew = input_slew };
      fall.(i) <- { time = 0.0; slew = input_slew })
    (Design.primary_inputs design);
  let ordered = Design.topological_gates design in
  List.iter
    (fun (g : Design.gate) ->
      let cell = Cell_lib.find lib g.Design.cell in
      let out = g.Design.output in
      Array.iteri
        (fun pin input ->
          let arc = cell.Cell_lib.arcs.(pin) in
          (* Negative unate: input fall -> output rise. *)
          let propagate (src : arrival) delay_lut slew_lut =
            if Float.equal src.time neg_infinity then None
            else begin
              let d = Lut.eval delay_lut ~slew:src.slew ~load:load.(out) in
              let s = Lut.eval slew_lut ~slew:src.slew ~load:load.(out) in
              Some { time = src.time +. d; slew = s }
            end
          in
          (match
             propagate fall.(input) arc.Cell_lib.delay_output_rise
               arc.Cell_lib.slew_output_rise
           with
           | Some a when a.time > rise.(out).time ->
             rise.(out) <- a;
             rise_from.(out) <- Through (g, pin, Fall)
           | Some _ | None -> ());
          match
            propagate rise.(input) arc.Cell_lib.delay_output_fall
              arc.Cell_lib.slew_output_fall
          with
          | Some a when a.time > fall.(out).time ->
            fall.(out) <- a;
            fall_from.(out) <- Through (g, pin, Rise)
          | Some _ | None -> ())
        g.Design.inputs)
    ordered;
  (* Worst primary output. *)
  let critical_output, critical_edge, critical_time =
    List.fold_left
      (fun (bo, be, bt) o ->
        let candidates = [ (o, Rise, rise.(o).time); (o, Fall, fall.(o).time) ] in
        List.fold_left
          (fun (bo, be, bt) (o, e, t) -> if t > bt then (o, e, t) else (bo, be, bt))
          (bo, be, bt) candidates)
      (-1, Rise, neg_infinity)
      (Design.primary_outputs design)
  in
  if critical_output < 0 || Float.equal critical_time neg_infinity then
    failwith "Engine.analyze: outputs unreachable from the primary inputs";
  (* Backtrace. *)
  let rec backtrace net edge acc =
    let from = match edge with Rise -> rise_from.(net) | Fall -> fall_from.(net) in
    match from with
    | Primary -> acc
    | Through (g, pin, in_edge) ->
      backtrace g.Design.inputs.(pin) in_edge ((g, edge) :: acc)
  in
  {
    arrivals_rise = rise;
    arrivals_fall = fall;
    critical_time;
    critical_output;
    critical_edge;
    critical_path = backtrace critical_output critical_edge [];
  }
