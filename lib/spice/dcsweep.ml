type t = { swept : Numerics.Vec.t; solutions : Numerics.Vec.t array }

let run sys ~source ~values =
  let n = Array.length values in
  if n = 0 then invalid_arg "Dcsweep.run: empty sweep";
  let solutions = Array.make n [||] in
  let prev = ref None in
  for i = 0 to n - 1 do
    let ov = [ (source, values.(i)) ] in
    let x =
      match !prev with
      | None -> Dcop.solve ~overrides:ov sys
      | Some x0 -> Dcop.solve ~x0 ~overrides:ov sys
    in
    solutions.(i) <- x;
    prev := Some x
  done;
  { swept = Array.copy values; solutions }

let probe sys sweep ~node =
  Array.map (fun x -> Mna.voltage sys x node) sweep.solutions
