exception
  No_convergence of {
    method_ : string;
    a : float;
    b : float;
    best : float;
    residual : float;
    iterations : int;
  }

let () =
  Printexc.register_printer (function
    | No_convergence { method_; a; b; best; residual; iterations } ->
      Some
        (Printf.sprintf
           "Root.No_convergence(%s: %d iterations, bracket [%h, %h], best %h, residual %h)"
           method_ iterations a b best residual)
    | _ -> None)

(* Every exhaustion path funnels through here so that a solver giving up is
   never silent: the obs counter/event fires, then [No_convergence]. *)
let exhausted ~method_ ~a ~b ~best ~residual ~iterations =
  Obs.non_converged ~solver:"numerics.root"
    ~attrs:
      [
        ("method", Obs.Trace.S method_);
        ("a", Obs.Trace.F a);
        ("b", Obs.Trace.F b);
        ("best", Obs.Trace.F best);
        ("residual", Obs.Trace.F residual);
        ("iterations", Obs.Trace.I iterations);
      ]
    (Printf.sprintf "%s exhausted %d iterations on [%g, %g]" method_ iterations a b);
  raise (No_convergence { method_; a; b; best; residual; iterations })

let bisect ?(tol = 1e-12) ?(max_iter = 200) f a b =
  let fa = f a and fb = f b in
  if Float.equal fa 0.0 then a
  else if Float.equal fb 0.0 then b
  else begin
    if fa *. fb > 0.0 then invalid_arg "Root.bisect: no sign change on [a, b]";
    (* The tolerance test comes before the budget test, so a converging
       call sequence never reaches the exhaustion path (golden snapshots
       are bit-exact about this). *)
    let rec loop a b fa iter =
      let m = 0.5 *. (a +. b) in
      if (b -. a) /. 2.0 < tol then m
      else if iter >= max_iter then
        exhausted ~method_:"bisect" ~a ~b ~best:m ~residual:(f m) ~iterations:iter
      else
        let fm = f m in
        if Float.equal fm 0.0 then m
        else if fa *. fm < 0.0 then loop a m fa (iter + 1)
        else loop m b fm (iter + 1)
    in
    loop (Float.min a b) (Float.max a b) (if a < b then fa else fb) 0
  end

(* Brent (1973), as in Numerical Recipes zbrent. *)
let brent ?(tol = 1e-12) ?(max_iter = 200) f a b =
  let fa = f a and fb = f b in
  if Float.equal fa 0.0 then a
  else if Float.equal fb 0.0 then b
  else begin
    if fa *. fb > 0.0 then invalid_arg "Root.brent: no sign change on [a, b]";
    let a = ref a and b = ref b and c = ref a and fa = ref fa and fb = ref fb in
    let fc = ref !fa and d = ref (!b -. !a) and e = ref (!b -. !a) in
    c := !a;
    let result = ref None in
    let iter = ref 0 in
    while Option.is_none !result && !iter < max_iter do
      incr iter;
      if Float.abs !fc < Float.abs !fb then begin
        a := !b;
        b := !c;
        c := !a;
        fa := !fb;
        fb := !fc;
        fc := !fa
      end;
      let tol1 = (2.0 *. epsilon_float *. Float.abs !b) +. (0.5 *. tol) in
      let xm = 0.5 *. (!c -. !b) in
      if Float.abs xm <= tol1 || Float.equal !fb 0.0 then result := Some !b
      else begin
        if Float.abs !e >= tol1 && Float.abs !fa > Float.abs !fb then begin
          let s = !fb /. !fa in
          let p, q =
            if Float.equal !a !c then
              let p = 2.0 *. xm *. s in
              (p, 1.0 -. s)
            else begin
              let q = !fa /. !fc and r = !fb /. !fc in
              let p = s *. ((2.0 *. xm *. q *. (q -. r)) -. ((!b -. !a) *. (r -. 1.0))) in
              (p, (q -. 1.0) *. (r -. 1.0) *. (s -. 1.0))
            end
          in
          let p, q = if p > 0.0 then (p, -.q) else (-.p, q) in
          let min1 = (3.0 *. xm *. q) -. Float.abs (tol1 *. q) in
          let min2 = Float.abs (!e *. q) in
          if 2.0 *. p < Float.min min1 min2 then begin
            e := !d;
            d := p /. q
          end
          else begin
            d := xm;
            e := xm
          end
        end
        else begin
          d := xm;
          e := xm
        end;
        a := !b;
        fa := !fb;
        if Float.abs !d > tol1 then b := !b +. !d
        else b := !b +. (if xm >= 0.0 then tol1 else -.tol1);
        fb := f !b;
        if !fb *. !fc > 0.0 then begin
          c := !a;
          fc := !fa;
          d := !b -. !a;
          e := !d
        end
      end
    done;
    match !result with
    | Some r -> r
    | None ->
      exhausted ~method_:"brent" ~a:!a ~b:!c ~best:!b ~residual:!fb ~iterations:!iter
  end
