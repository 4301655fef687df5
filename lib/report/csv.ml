let needs_quoting cell =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') cell

let escape_cell cell =
  if needs_quoting cell then begin
    let buf = Buffer.create (String.length cell + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      cell;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else cell

let of_rows rows =
  String.concat "\n" (List.map (fun row -> String.concat "," (List.map escape_cell row)) rows)
  ^ "\n"

let of_table (t : Table.t) = of_rows (t.Table.headers :: t.Table.rows)
