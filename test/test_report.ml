open Subscale
module Table = Report.Table
module Csv = Report.Csv
module Plot = Report.Plot

let u = Test_util.case
let prop = Test_util.prop

let find_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  if n = 0 then Some 0
  else begin
    let rec go i =
      if i + n > h then None
      else if String.sub haystack i n = needle then Some i
      else go (i + 1)
    in
    go 0
  end

let contains haystack needle = find_substring haystack needle <> None

let sample_table =
  Table.make ~title:"T" ~headers:[ "a"; "bb" ] ~notes:[ "n1" ]
    [ [ "1"; "2" ]; [ "333"; "4" ] ]

let table_tests =
  [
    u "row width mismatch is rejected" (fun () ->
        Alcotest.check_raises "width"
          (Invalid_argument "Table.make: row 0 has 1 cells, expected 2") (fun () ->
            ignore (Table.make ~title:"t" ~headers:[ "a"; "b" ] [ [ "x" ] ])));
    u "render contains title, headers, cells and notes" (fun () ->
        let s = Table.render sample_table in
        List.iter
          (fun needle -> Alcotest.(check bool) needle true (contains s needle))
          [ "T"; "bb"; "333"; "note: n1" ]);
    u "columns are aligned" (fun () ->
        let s = Table.render sample_table in
        let lines = String.split_on_char '\n' s in
        (* Header line and the "333" row must place column 2 at the same
           offset. *)
        let col_of needle =
          let line = List.find (fun l -> contains l needle) lines in
          match find_substring line needle with Some i -> i | None -> -1
        in
        Alcotest.(check int) "aligned" (col_of "bb") (col_of "4"));
    u "fmt is sprintf" (fun () ->
        Alcotest.(check string) "fmt" "x=3.14" (Table.fmt "x=%.2f" 3.14159));
  ]

(* One cell as [Csv.of_table] writes it. *)
let escape_cell cell =
  let line = Csv.of_table (Table.make ~title:"" ~headers:[ cell ] []) in
  String.sub line 0 (String.length line - 1)

let csv_tests =
  [
    u "plain cells pass through" (fun () ->
        Alcotest.(check string) "plain" "abc" (escape_cell "abc"));
    u "cells with commas and quotes are quoted" (fun () ->
        Alcotest.(check string) "comma" "\"a,b\"" (escape_cell "a,b");
        Alcotest.(check string) "quote" "\"a\"\"b\"" (escape_cell "a\"b"));
    prop "escaped cells never contain a bare newline break"
      QCheck2.Gen.(string_size ~gen:printable (int_range 0 20)) (fun s ->
        let e = escape_cell s in
        (not (String.contains s ',')) || (String.length e >= 2 && e.[0] = '"'));
    u "of_table emits headers then rows" (fun () ->
        let csv = Csv.of_table sample_table in
        Alcotest.(check string) "csv" "a,bb\n1,2\n333,4\n" csv);
  ]

let plot_tests =
  [
    u "render includes the legend and markers" (fun () ->
        let s =
          Plot.render ~title:"P"
            [ { Plot.name = "series-one"; points = [| (0.0, 0.0); (1.0, 1.0) |] } ]
        in
        Alcotest.(check bool) "legend" true (contains s "series-one");
        Alcotest.(check bool) "marker" true (String.contains s '*'));
    u "a single point renders without dividing by zero" (fun () ->
        let s = Plot.render ~title:"pt" [ { Plot.name = "p"; points = [| (2.0, 3.0) |] } ] in
        Alcotest.(check bool) "non-empty" true (String.length s > 0));
    u "empty series are rejected" (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Plot.render: no points") (fun () ->
            ignore (Plot.render ~title:"x" [ { Plot.name = "e"; points = [||] } ])));
  ]

let suite =
  [
    ("report.table", table_tests);
    ("report.csv", csv_tests);
    ("report.plot", plot_tests);
  ]
