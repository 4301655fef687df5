open Subscale
module E = Experiments

let u = Test_util.case
let slow = Test_util.slow_case

(* One shared context (with 130 nm, so fig12 is valid) for the whole suite. *)
let ctx = lazy (E.make_context ~with_130:true ())

let rows o = o.E.table.Report.Table.rows
let note_text o = String.concat " " o.E.table.Report.Table.notes

let cell o r c = List.nth (List.nth (rows o) r) c

let float_cell o r c = float_of_string (cell o r c)

let in_group g = List.filter (fun (e : E.experiment) -> e.E.group = g) E.registry

(* Every table and figure, in paper order: the registry's [Paper] entries
   run on the shared context. *)
let paper_outputs () =
  List.map (fun (e : E.experiment) -> e.E.run ~measured:false ctx) (in_group E.Paper)

let structure_tests =
  [
    u "table1 lists the six scaling factors" (fun () ->
        Alcotest.(check int) "rows" 6 (List.length (rows (E.table1 ()))));
    slow "table2 interleaves ours and the paper's rows" (fun () ->
        let o = E.table2 (Lazy.force ctx) in
        Alcotest.(check int) "rows" 8 (List.length (rows o));
        Alcotest.(check string) "first" "90 ours" (cell o 0 0);
        Alcotest.(check string) "second" "90 paper" (cell o 1 0));
    slow "table3 normalizes factors to the 90 nm node" (fun () ->
        let o = E.table3 (Lazy.force ctx) in
        Test_util.check_rel "unit lead" ~rel:1e-9 1.0 (float_cell o 0 5));
    slow "every experiment produces non-empty output" (fun () ->
        let outputs = paper_outputs () in
        Alcotest.(check int) "count" 14 (List.length outputs);
        List.iter
          (fun (o : E.output) -> Alcotest.(check bool) (o.E.id ^ " rows") true (rows o <> []))
          outputs);
    slow "experiment ids are unique and in paper order" (fun () ->
        let outputs = paper_outputs () in
        let ids = List.map (fun (o : E.output) -> o.E.id) outputs in
        Alcotest.(check (list string)) "ids"
          [ "table1"; "table2"; "table3"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6";
            "fig7"; "fig8"; "fig9"; "fig10"; "fig11"; "fig12" ]
          ids);
  ]

let ids experiments = List.map (fun (e : E.experiment) -> e.E.id) experiments

let context_free =
  [ "table1"; "fig7"; "fig8"; "ext-multivth"; "ext-temperature"; "ext-projection" ]

let registry_tests =
  [
    u "registry ids are unique and in `run everything` order" (fun () ->
        Alcotest.(check (list string)) "ids"
          [ "table1"; "table2"; "table3"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7";
            "fig8"; "fig9"; "fig10"; "fig11"; "fig12"; "ext-variability"; "ext-multivth";
            "ext-bitline"; "ext-temperature"; "ext-datapath"; "ext-interconnect"; "ext-sta";
            "ext-yield"; "ext-projection"; "ext-corners"; "ext-pareto" ]
          (ids E.registry);
        Alcotest.(check int) "unique" (List.length E.registry)
          (List.length (List.sort_uniq compare (ids E.registry)));
        List.iter
          (fun id ->
            Alcotest.(check (option string)) id (Some id)
              (Option.map (fun (e : E.experiment) -> e.E.id) (E.find id)))
          (ids E.registry);
        Alcotest.(check bool) "unknown id" true (Option.is_none (E.find "fig13")));
    slow "all and all_extensions are the registry's two partitions" (fun () ->
        Alcotest.(check (list string)) "paper then extensions" (ids E.registry)
          (ids (in_group E.Paper) @ ids (in_group E.Extension));
        Alcotest.(check (list string)) "the paper partition's outputs carry its ids"
          (ids (in_group E.Paper))
          (List.map (fun (o : E.output) -> o.E.id) (paper_outputs ())));
    slow "context-free drivers never force the context; the rest do" (fun () ->
        let poisoned : E.context Lazy.t = lazy (failwith "context forced") in
        List.iter
          (fun (e : E.experiment) ->
            match e.E.run ~measured:false poisoned with
            | o ->
              Alcotest.(check bool) (e.E.id ^ " is context-free") true
                (List.mem e.E.id context_free);
              Alcotest.(check string) "output id" e.E.id o.E.id
            | exception Failure msg ->
              Alcotest.(check string) (e.E.id ^ " forced the context") "context forced" msg;
              Alcotest.(check bool) (e.E.id ^ " needs the context") false
                (List.mem e.E.id context_free))
          E.registry);
    slow "ext-datapath and ext-sta share one carry delay per node" (fun () ->
        let c = Lazy.force ctx in
        Subscale.Exec.Memo.clear_all ();
        ignore (E.ext_datapath c : E.output);
        ignore (E.ext_sta c : E.output);
        let s =
          List.find
            (fun (s : Subscale.Exec.Memo.stats) ->
              s.Subscale.Exec.Memo.name = "experiments.carry_delay")
            (Subscale.Exec.Memo.stats ())
        in
        let nodes = List.length Subscale.Scaling.Roadmap.nodes in
        Alcotest.(check int) "one miss per node" nodes s.Subscale.Exec.Memo.misses;
        Alcotest.(check int) "one hit per node" nodes s.Subscale.Exec.Memo.hits);
    slow "each driver's MNA builds at one job, from cleared memo tables" (fun () ->
        (* spice.mna.builds as a delta around each driver: at one job and
           with every memo table cleared first, a pure function of the
           code.  ext-sta builds one system per (node, cell, pin), 5 per
           node, plus its 4 carry delays: 24, where a system per grid
           point and per leakage fixture made 376. *)
        ignore (Lazy.force ctx : E.context);
        let jobs = Exec.jobs () in
        Fun.protect ~finally:(fun () -> Exec.set_jobs jobs) @@ fun () ->
        Exec.set_jobs 1;
        let builds =
          List.filter_map
            (fun (e : E.experiment) ->
              Exec.Memo.clear_all ();
              let before = Test_util.counter_value "spice.mna.builds" in
              ignore (e.E.run ~measured:false ctx : E.output);
              match Test_util.counter_value "spice.mna.builds" - before with
              | 0 -> None
              | n -> Some (e.E.id, n))
            E.registry
        in
        Alcotest.(check (list (pair string int))) "builds per driver"
          [ ("fig4", 4); ("ext-datapath", 8); ("ext-sta", 24); ("ext-corners", 10) ]
          builds);
  ]

let headline_tests =
  [
    slow "fig2: SS degradation lands in the paper's band" (fun () ->
        let o = E.fig2 (Lazy.force ctx) in
        let ss90 = float_cell o 0 1 and ss32 = float_cell o 3 1 in
        Test_util.check_in_range "degradation" ~lo:1.05 ~hi:1.25 (ss32 /. ss90));
    slow "fig2: on/off ratio drops by roughly half or more" (fun () ->
        let o = E.fig2 (Lazy.force ctx) in
        let r90 = float_cell o 0 2 and r32 = float_cell o 3 2 in
        Test_util.check_in_range "drop" ~lo:0.25 ~hi:0.65 (r32 /. r90));
    slow "fig4: SNM at 250 mV degrades more than 10%" (fun () ->
        let o = E.fig4 (Lazy.force ctx) in
        let s90 = float_cell o 0 2 and s32 = float_cell o 3 2 in
        Alcotest.(check bool) "paper claim" true (s32 /. s90 < 0.90));
    slow "fig6: Vmin rises under super-Vth scaling" (fun () ->
        let o = E.fig6 (Lazy.force ctx) in
        let v90 = float_cell o 0 1 and v32 = float_cell o 3 1 in
        Alcotest.(check bool) "rises" true (v32 -. v90 > 15.0));
    slow "fig6: the CL*SS^2 factor tracks the energy column" (fun () ->
        let o = E.fig6 (Lazy.force ctx) in
        List.iter
          (fun row ->
            let e_norm = float_of_string (List.nth row 3) in
            let f_norm = float_of_string (List.nth row 4) in
            Test_util.check_rel "tracks" ~rel:0.25 e_norm f_norm)
          (rows o));
    u "fig7: optimized doping wins at the longest gate" (fun () ->
        let o = E.fig7 () in
        let last = List.length (rows o) - 1 in
        Alcotest.(check bool) "wins" true (float_cell o last 1 <= float_cell o last 2));
    u "fig8: both factors dip below their endpoints" (fun () ->
        let o = E.fig8 () in
        let efs = List.map (fun r -> float_of_string (List.nth r 1)) (rows o) in
        let first = List.hd efs and last = List.nth efs (List.length efs - 1) in
        Alcotest.(check bool) "interior min" true
          (List.exists (fun e -> e < first && e < last) efs
           || first = 1.0 || last = 1.0));
    slow "fig10: the sub-Vth SNM advantage grows with scaling" (fun () ->
        let o = E.fig10 (Lazy.force ctx) in
        let gains = List.map (fun r -> float_of_string (List.nth r 3)) (rows o) in
        let first = List.hd gains and last = List.nth gains (List.length gains - 1) in
        Alcotest.(check bool) "grows" true (last > first);
        Test_util.check_in_range "32 nm gain" ~lo:8.0 ~hi:35.0 last);
    slow "fig11: normalized sub-Vth delay falls; super-Vth delay rises" (fun () ->
        let o = E.fig11 (Lazy.force ctx) in
        let col i = List.map (fun r -> float_of_string (List.nth r i)) (rows o) in
        let last l = List.nth l (List.length l - 1) in
        Alcotest.(check bool) "super degrades" true (last (col 1) > 1.0);
        Alcotest.(check bool) "sub improves" true (last (col 2) < 1.0));
    slow "fig12: includes the 130 nm point and the sub-Vth energy win" (fun () ->
        let o = E.fig12 (Lazy.force ctx) in
        Alcotest.(check int) "rows" 5 (List.length (rows o));
        Alcotest.(check string) "130 first" "130" (cell o 0 0);
        let last = List.length (rows o) - 1 in
        let e_sup = float_cell o last 3 and e_sub = float_cell o last 4 in
        Test_util.check_in_range "win" ~lo:0.70 ~hi:0.95 (e_sub /. e_sup));
  ]

let suite =
  [ ("experiments.structure", structure_tests);
    ("experiments.registry", registry_tests);
    ("experiments.headline", headline_tests) ]
