type t = { swept : Numerics.Vec.t; solutions : Numerics.Vec.t array }

let run sys ~source ~values =
  let n = Array.length values in
  if n = 0 then invalid_arg "Dcsweep.run: empty sweep";
  let ws = Dcop.workspace sys in
  let solutions = Array.make n [||] in
  let prev = ref None in
  for i = 0 to n - 1 do
    let x = Dcop.solve_in ws ?x0:!prev ~overrides:[ (source, values.(i)) ] sys in
    solutions.(i) <- x;
    prev := Some x
  done;
  { swept = Array.copy values; solutions }

let probe sys sweep ~node =
  Array.map (fun x -> Mna.voltage sys x node) sweep.solutions
