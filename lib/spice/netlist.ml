type waveform =
  | Dc of float
  | Pulse of {
      low : float;
      high : float;
      delay : float;
      rise : float;
      fall : float;
      width : float;
      period : float;
    }
  | Pwl of (float * float) list

let pwl points =
  if List.is_empty points then invalid_arg "Netlist.pwl: empty point list";
  let rec check = function
    | (t0, _) :: ((t1, _) :: _ as rest) ->
      if t1 <= t0 then
        invalid_arg
          (Printf.sprintf "Netlist.pwl: points not strictly time-sorted (%g after %g)" t1 t0);
      check rest
    | [ _ ] | [] -> ()
  in
  check points;
  Pwl points

(* The value at the time [a.(i)] of a Pwl's points, clamped to the first
   and last point.  The time is read from [a] and the value written there,
   so no float is boxed. *)
let rec pwl_into points (a : float array) i =
  match points with
  | [] -> ()
  | [ (_, v) ] -> a.(i) <- v
  | (t0, v0) :: ((t1, v1) :: _ as rest) ->
    let t = a.(i) in
    if t <= t0 then a.(i) <- v0
    else if t <= t1 then a.(i) <- v0 +. ((v1 -. v0) *. (t -. t0) /. (t1 -. t0))
    else pwl_into rest a i

let waveform_into wave (a : float array) i =
  let t = a.(i) in
  match wave with
  | Dc v -> a.(i) <- v
  | Pulse { low; high; delay; rise; fall; width; period } ->
    a.(i) <-
      (if t <= delay then low
       else begin
         let tau = mod_float (t -. delay) period in
         if tau < rise then low +. ((high -. low) *. tau /. rise)
         else if tau < rise +. width then high
         else if tau < rise +. width +. fall then
           high -. ((high -. low) *. (tau -. rise -. width) /. fall)
         else low
       end)
  | Pwl [] -> invalid_arg "Netlist.waveform_into: empty Pwl waveform"
  | Pwl points -> pwl_into points a i

type mosfet = {
  dev : Device.Compact.t;
  width : float;
  drain : int;
  gate : int;
  source : int;
}

type element =
  | Resistor of { plus : int; minus : int; ohms : float }
  | Capacitor of { plus : int; minus : int; farads : float }
  | Voltage_source of { name : string; plus : int; minus : int; wave : waveform }
  | Current_source of { plus : int; minus : int; amps : float }
  | Nmos of mosfet
  | Pmos of mosfet

type t = {
  mutable next_node : int;
  mutable rev_elements : element list;
  names : (string, int) Hashtbl.t;
}

let create () = { next_node = 1; rev_elements = []; names = Hashtbl.create 16 }

let ground = 0

let fresh_node c =
  let n = c.next_node in
  c.next_node <- n + 1;
  n

let node c name =
  match Hashtbl.find_opt c.names name with
  | Some n -> n
  | None ->
    let n = fresh_node c in
    Hashtbl.add c.names name n;
    n

let node_name c n =
  if n = 0 then "gnd"
  else begin
    let found = Hashtbl.fold (fun k v acc -> if v = n then Some k else acc) c.names None in
    match found with Some name -> name | None -> Printf.sprintf "n%d" n
  end

let add c e = c.rev_elements <- e :: c.rev_elements

let elements c = List.rev c.rev_elements

let n_nodes c = c.next_node

let voltage_sources c =
  List.filter_map
    (function
      | Voltage_source { name; plus; minus; wave } -> Some (name, plus, minus, wave)
      | Resistor _ | Capacitor _ | Current_source _ | Nmos _ | Pmos _ -> None)
    (elements c)

let capacitors c =
  List.filter_map
    (function
      | Capacitor { plus; minus; farads } -> Some (plus, minus, farads)
      | Resistor _ | Voltage_source _ | Current_source _ | Nmos _ | Pmos _ -> None)
    (elements c)
