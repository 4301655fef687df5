(* Wire protocol: line-delimited JSON over the Report.Json subset. *)

module Json = Report.Json

type request =
  | Ping
  | Health
  | Shutdown
  | Device of { node : int; strategy : string }
  | Tcad of {
      node : int;
      strategy : string;
      vdd : float;
      nx : int option;
      ny : int option;
    }
  | Idvg of {
      node : int;
      strategy : string;
      vd : float;
      vg_min : float;
      vg_max : float;
      points : int;
      nx : int option;
      ny : int option;
    }

type envelope = { id : Json.t; req : request }

(* --- parsing ---------------------------------------------------------- *)

(* Resource bounds, enforced at parse time.  [points] sizes a linspace
   allocation and [nx]/[ny] size a mesh (and [nx = 0] would divide the
   mesher's minimum spacing by zero), so unbounded client values are a
   daemon-killer: a hostile request must come back as an error response
   before it can allocate anything. *)
let max_points = 4096
let min_mesh = 4
let max_mesh = 512

let bounded what ~lo ~hi v =
  if v < lo || v > hi then
    raise (Json.Bad (Printf.sprintf "%s = %d out of bounds [%d, %d]" what v lo hi));
  v

let capped what ~max v =
  if v > max then
    raise (Json.Bad (Printf.sprintf "%s = %d exceeds the maximum %d" what v max));
  v

let opt_int what j name =
  match Json.member name j with
  | None | Some Json.Null -> None
  | Some v ->
    let label = what ^ "." ^ name in
    Some (bounded label ~lo:min_mesh ~hi:max_mesh (Json.as_int label v))

let req_int j name = Json.as_int name (Json.field name j)
let req_num j name = Json.as_number name (Json.field name j)
let req_str j name = Json.as_string name (Json.field name j)

let request_of_json j =
  match Json.as_string "op" (Json.field "op" j) with
  | "ping" -> Ping
  | "health" -> Health
  | "shutdown" -> Shutdown
  | "device" -> Device { node = req_int j "node"; strategy = req_str j "strategy" }
  | "tcad" ->
    Tcad
      {
        node = req_int j "node";
        strategy = req_str j "strategy";
        vdd = (match Json.member "vdd" j with
              | None | Some Json.Null -> 0.9
              | Some v -> Json.as_number "vdd" v);
        nx = opt_int "tcad" j "nx";
        ny = opt_int "tcad" j "ny";
      }
  | "idvg" ->
    Idvg
      {
        node = req_int j "node";
        strategy = req_str j "strategy";
        vd = req_num j "vd";
        vg_min = req_num j "vg_min";
        vg_max = req_num j "vg_max";
        (* The lower bound (>= 2) stays with [Coalesce.grid_of_box], which
           also vets the vg range; only the allocation cap lives here. *)
        points = capped "points" ~max:max_points (req_int j "points");
        nx = opt_int "idvg" j "nx";
        ny = opt_int "idvg" j "ny";
      }
  | other -> raise (Json.Bad (Printf.sprintf "unknown op %S" other))

let parse_request line =
  match
    let j = Json.parse_exn line in
    let id = match Json.member "id" j with Some v -> v | None -> Json.Null in
    { id; req = request_of_json j }
  with
  | env -> Ok env
  | exception Json.Bad msg -> Error msg

(* --- rendering -------------------------------------------------------- *)

let opt_int_field name = function
  | None -> []
  | Some v -> [ (name, Json.Num (float_of_int v)) ]

let render_request ?(id = Json.Null) req =
  let fields =
    match req with
    | Ping -> [ ("op", Json.Str "ping") ]
    | Health -> [ ("op", Json.Str "health") ]
    | Shutdown -> [ ("op", Json.Str "shutdown") ]
    | Device { node; strategy } ->
      [ ("op", Json.Str "device");
        ("node", Json.Num (float_of_int node));
        ("strategy", Json.Str strategy) ]
    | Tcad { node; strategy; vdd; nx; ny } ->
      [ ("op", Json.Str "tcad");
        ("node", Json.Num (float_of_int node));
        ("strategy", Json.Str strategy);
        ("vdd", Json.Num vdd) ]
      @ opt_int_field "nx" nx @ opt_int_field "ny" ny
    | Idvg { node; strategy; vd; vg_min; vg_max; points; nx; ny } ->
      [ ("op", Json.Str "idvg");
        ("node", Json.Num (float_of_int node));
        ("strategy", Json.Str strategy);
        ("vd", Json.Num vd);
        ("vg_min", Json.Num vg_min);
        ("vg_max", Json.Num vg_max);
        ("points", Json.Num (float_of_int points)) ]
      @ opt_int_field "nx" nx @ opt_int_field "ny" ny
  in
  let fields = match id with Json.Null -> fields | id -> ("id", id) :: fields in
  Json.render (Json.Obj fields)

let id_field = function Json.Null -> [] | id -> [ ("id", id) ]

(* [Json.render] writes an object compactly as '{', its members joined by
   ',' and '}', so an ok response is its head, the id member and the body:
   the fields' own object with its '{' turned into the ',' that joins them
   to the head. *)
let ok_head = {|{"ok":true|}

let ok_body = function
  | [] -> "}"
  | fields ->
    let body = Bytes.of_string (Json.render (Json.Obj fields)) in
    Bytes.set body 0 ',';
    Bytes.unsafe_to_string body

let ok_response_of_body ~id body =
  match id with
  | Json.Null -> ok_head ^ body
  | id -> String.concat "" [ ok_head; {|,"id":|}; Json.render id; body ]

let ok_response ~id fields = ok_response_of_body ~id (ok_body fields)

let error_response ~id msg =
  Json.render
    (Json.Obj ((("ok", Json.Bool false) :: id_field id) @ [ ("error", Json.Str msg) ]))
