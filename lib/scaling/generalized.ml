type factors = {
  physical_dimension : float;
  channel_doping : float;
  vdd : float;
  area : float;
  delay : float;
  power : float;
}

let factors ~alpha ~epsilon =
  if alpha <= 0.0 || epsilon <= 0.0 then invalid_arg "Generalized.factors: positive args";
  {
    physical_dimension = 1.0 /. alpha;
    channel_doping = epsilon *. alpha;
    vdd = epsilon /. alpha;
    area = 1.0 /. (alpha *. alpha);
    delay = 1.0 /. alpha;
    power = epsilon *. epsilon /. (alpha *. alpha);
  }

let apply ~generations ~alpha ~epsilon (p : Device.Params.physical) =
  if generations < 0 then invalid_arg "Generalized.apply: negative generations";
  let f = factors ~alpha ~epsilon in
  let pow x n = x ** float_of_int n in
  {
    p with
    Device.Params.lpoly = p.Device.Params.lpoly *. pow f.physical_dimension generations;
    tox = p.Device.Params.tox *. pow f.physical_dimension generations;
    nsub = p.Device.Params.nsub *. pow f.channel_doping generations;
    np_halo = p.Device.Params.np_halo *. pow f.channel_doping generations;
    vdd = p.Device.Params.vdd *. pow f.vdd generations;
  }
