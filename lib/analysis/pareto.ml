type point = { vdd : float; delay : float; energy : float }

let curve ?(points = 30) pair ~lo ~hi =
  if lo <= 0.0 || hi <= lo then invalid_arg "Pareto.curve: bad supply range";
  let sizing = Circuits.Inverter.balanced_sizing () in
  Array.to_list
    (Array.map
       (fun vdd ->
         let b = Energy.analytic ~sizing pair ~vdd in
         {
           vdd;
           delay = Delay.eq5 pair ~sizing ~vdd;
           energy = b.Energy.e_total;
         })
       (Numerics.Vec.linspace lo hi points))

let pareto_front points =
  let sorted = List.sort (fun a b -> Float.compare a.delay b.delay) points in
  let rec keep best_energy = function
    | [] -> []
    | p :: rest ->
      if p.energy < best_energy then p :: keep p.energy rest else keep best_energy rest
  in
  keep infinity sorted

let min_edp = function
  | [] -> invalid_arg "Pareto.min_edp: empty curve"
  | first :: rest ->
    List.fold_left
      (fun best p -> if p.energy *. p.delay < best.energy *. best.delay then p else best)
      first rest

let energy_at_delay points ~delay =
  let feasible = List.filter (fun p -> p.delay <= delay) points in
  match feasible with
  | [] -> None
  | first :: rest ->
    Some (List.fold_left (fun e p -> Float.min e p.energy) first.energy rest)
