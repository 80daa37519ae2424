(* Tests of the plan compiler and optimizer. *)

open Sheet_rel
open Sheet_core

let parse = Expr_parse.parse_string_exn

let cars () = Spreadsheet.of_relation ~name:"cars" Sample_cars.relation

let apply_exn s op =
  match Engine.apply s op with
  | Ok s -> s
  | Error e -> Alcotest.failf "refused: %s" (Errors.to_string e)

let apply_seq sheet ops = List.fold_left apply_exn sheet ops

let rich_sheet () =
  apply_seq (cars ())
    [ Op.Select (parse "Year >= 2005");
      Op.Group { basis = [ "Model" ]; dir = Grouping.Asc };
      Op.Aggregate
        { fn = Expr.Avg; col = Some "Price"; level = 2; as_name = Some "ap" };
      Op.Select (parse "Price <= ap");
      Op.Formula { name = Some "d"; expr = parse "ap - Price" };
      Op.Select (parse "d >= 0");
      Op.Project "Mileage";
      Op.Order { attr = "Price"; dir = Grouping.Asc; level = 2 } ]

let rec count pred plan =
  let self = if pred plan then 1 else 0 in
  match plan with
  | Plan.Scan _ -> self
  | Plan.Project (_, c)
  | Plan.Filter (_, c)
  | Plan.Distinct_on (_, c)
  | Plan.Extend_formula (_, c)
  | Plan.Extend_aggregate (_, c)
  | Plan.Sort (_, c) ->
      self + count pred c

let is_filter = function Plan.Filter _ -> true | _ -> false
let is_project = function Plan.Project _ -> true | _ -> false

let test_compile_equals_materialize () =
  let sheet = rich_sheet () in
  let plan = Plan.of_sheet sheet in
  Alcotest.(check bool) "plan == oracle" true
    (Oracle.same (Plan.execute plan) (Oracle.full sheet))

let test_optimize_preserves () =
  let sheet = rich_sheet () in
  let plan = Plan.of_sheet sheet in
  let optimized = Plan.optimize plan in
  Alcotest.(check bool) "optimized == raw" true
    (Relation.equal
       (Relation.normalize
          (Rel_algebra.project (Plan.output_columns plan)
             (Plan.execute optimized)))
       (Relation.normalize (Plan.execute plan)))

let test_optimize_for_visible () =
  let sheet = rich_sheet () in
  let visible = Spreadsheet.visible_columns sheet in
  let plan = Plan.of_sheet sheet in
  let optimized = Plan.optimize ~keep:visible plan in
  Alcotest.(check bool) "visible projection preserved" true
    (Oracle.same
       (Rel_algebra.project visible (Plan.execute optimized))
       (Oracle.visible sheet));
  (* the hidden, unused Mileage column is pruned at the scan *)
  Alcotest.(check bool) "scan projected" true
    (count is_project optimized >= 1)

let test_filter_fusion () =
  let sheet =
    apply_seq (cars ())
      [ Op.Select (parse "Year >= 2005");
        Op.Select (parse "Price < 17000");
        Op.Select (parse "Model = 'Jetta'") ]
  in
  let plan = Plan.of_sheet sheet in
  Alcotest.(check int) "three filters raw" 3 (count is_filter plan);
  let optimized = Plan.optimize plan in
  Alcotest.(check int) "one fused filter" 1 (count is_filter optimized);
  Alcotest.(check bool) "same result" true
    (Relation.equal
       (Relation.normalize (Plan.execute optimized))
       (Relation.normalize (Plan.execute plan)))

let test_pushdown_blocked_by_aggregate () =
  (* HAVING-style filter must stay above the aggregate extension *)
  let sheet =
    apply_seq (cars ())
      [ Op.Group { basis = [ "Model" ]; dir = Grouping.Asc };
        Op.Aggregate
          { fn = Expr.Count_star; col = None; level = 2;
            as_name = Some "n" };
        Op.Select (parse "n >= 4") ]
  in
  let optimized = Plan.optimize (Plan.of_sheet sheet) in
  let rec having_above_agg = function
    | Plan.Filter (pred, child) ->
        if List.mem "n" (Expr.columns pred) then
          (* the aggregate extension must appear below us *)
          count (function Plan.Extend_aggregate _ -> true | _ -> false)
            child
          = 1
        else having_above_agg child
    | Plan.Scan _ -> false
    | Plan.Project (_, c)
    | Plan.Distinct_on (_, c)
    | Plan.Extend_formula (_, c)
    | Plan.Extend_aggregate (_, c)
    | Plan.Sort (_, c) ->
        having_above_agg c
  in
  Alcotest.(check bool) "having stays above" true
    (having_above_agg optimized);
  Alcotest.(check bool) "result preserved" true
    (Relation.equal
       (Relation.normalize (Plan.execute optimized))
       (Relation.normalize (Oracle.full sheet)))

let test_pushdown_through_formula () =
  let sheet =
    apply_seq (cars ())
      [ Op.Formula { name = Some "f"; expr = parse "Price * 2" };
        Op.Select (parse "Year >= 2005") ]
  in
  let optimized = Plan.optimize (Plan.of_sheet sheet) in
  (* the Year filter reads no formula output, so it slides below *)
  let rec filter_below_formula = function
    | Plan.Extend_formula (_, Plan.Filter _) -> true
    | Plan.Scan _ -> false
    | Plan.Project (_, c)
    | Plan.Filter (_, c)
    | Plan.Distinct_on (_, c)
    | Plan.Extend_formula (_, c)
    | Plan.Extend_aggregate (_, c)
    | Plan.Sort (_, c) ->
        filter_below_formula c
  in
  Alcotest.(check bool) "filter pushed below formula" true
    (filter_below_formula optimized)

let test_prune_drops_unused_extension () =
  let sheet =
    apply_seq (cars ())
      [ Op.Formula { name = Some "unused"; expr = parse "Price * 3" };
        Op.Select (parse "Year >= 2005") ]
  in
  let plan = Plan.of_sheet sheet in
  let keep = [ "ID"; "Model" ] in
  let optimized = Plan.optimize ~keep plan in
  Alcotest.(check int) "unused formula dropped" 0
    (count (function Plan.Extend_formula _ -> true | _ -> false) optimized);
  Alcotest.(check bool) "kept columns agree" true
    (Relation.equal
       (Relation.normalize (Rel_algebra.project keep (Plan.execute optimized)))
       (Relation.normalize (Rel_algebra.project keep (Plan.execute plan))))

let test_explain_output () =
  let text = Plan.explain (Plan.of_sheet (rich_sheet ())) in
  let has needle =
    let nh = String.length text and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub text i nn = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "sort line" true (has "Sort [Model asc");
  Alcotest.(check bool) "aggregate line" true
    (has "ExtendAgg ap = avg(Price) over [Model]");
  Alcotest.(check bool) "scan line" true (has "Scan (9 rows")

let test_dedup_distinct_on () =
  let dup =
    Relation.make Sample_cars.schema
      (Relation.rows Sample_cars.relation
      @ Relation.rows Sample_cars.relation)
  in
  let sheet =
    apply_seq
      (Spreadsheet.of_relation ~name:"dup" dup)
      [ Op.Project "ID"; Op.Dedup ]
  in
  let plan = Plan.of_sheet sheet in
  Alcotest.(check bool) "plan == oracle under partial dedup keys" true
    (Oracle.same (Plan.execute plan) (Oracle.full sheet))

let () =
  Alcotest.run "sheet_plan"
    [ ( "compile",
        [ Alcotest.test_case "equals interpreter" `Quick
            test_compile_equals_materialize;
          Alcotest.test_case "dedup keys" `Quick test_dedup_distinct_on;
          Alcotest.test_case "explain" `Quick test_explain_output ] );
      ( "optimize",
        [ Alcotest.test_case "preserves semantics" `Quick
            test_optimize_preserves;
          Alcotest.test_case "for visible columns" `Quick
            test_optimize_for_visible;
          Alcotest.test_case "filter fusion" `Quick test_filter_fusion;
          Alcotest.test_case "pushdown blocked by aggregate" `Quick
            test_pushdown_blocked_by_aggregate;
          Alcotest.test_case "pushdown through formula" `Quick
            test_pushdown_through_formula;
          Alcotest.test_case "prunes unused extensions" `Quick
            test_prune_drops_unused_extension ] ) ]
