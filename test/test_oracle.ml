(* Literal expectations for the reference interpreter (oracle.ml), in
   the style of spreadsheet formula tests: a five-row table, a few
   user operations, and the exact cells expected back, row by row.
   The cases pin the idioms spreadsheet users query with most —
   per-group totals, filtering on a total, removing duplicate rows
   and sorted groups — at the points where the paper's semantics is
   easy to get wrong. The executor must produce the same literals. *)

open Sheet_rel
open Sheet_core

let parse = Expr_parse.parse_string_exn

let sales =
  Relation.make
    (Schema.of_list
       [ ("id", Value.TInt); ("region", Value.TString);
         ("item", Value.TString); ("amt", Value.TInt) ])
    (List.map
       (fun (id, region, item, amt) ->
         Row.of_list
           [ Value.Int id; Value.String region; Value.String item;
             Value.Int amt ])
       [ (1, "East", "pen", 10); (2, "West", "ink", 20);
         (3, "East", "ink", 30); (4, "West", "pen", 40);
         (5, "East", "pen", 50) ])

let sheet ops =
  List.fold_left
    (fun s op ->
      match Engine.apply s op with
      | Ok s -> s
      | Error e -> Alcotest.failf "refused: %s" (Errors.to_string e))
    (Spreadsheet.of_relation ~name:"sales" sales)
    ops

let cells rel = List.map Row.to_list (Relation.rows rel)

let value = Alcotest.testable Value.pp Value.equal

let check_rows what ops expected =
  let s = sheet ops in
  let rows = Alcotest.(list (list value)) in
  Alcotest.check rows ("oracle: " ^ what) expected (cells (Oracle.full s));
  Alcotest.check rows ("executor: " ^ what) expected
    (cells (Materialize.full s))

let i n = Value.Int n
let s x = Value.String x

let by_region = Op.Group { basis = [ "region" ]; dir = Grouping.Asc }

(* Table III: an aggregate is computed once per group and repeated on
   every row of the group; rows keep base order inside a group. *)
let test_aggregate_repeated () =
  check_rows "sum per region"
    [ by_region;
      Op.Aggregate
        { fn = Expr.Sum; col = Some "amt"; level = 2; as_name = Some "total" } ]
    [ [ i 1; s "East"; s "pen"; i 10; i 90 ];
      [ i 3; s "East"; s "ink"; i 30; i 90 ];
      [ i 5; s "East"; s "pen"; i 50; i 90 ];
      [ i 2; s "West"; s "ink"; i 20; i 60 ];
      [ i 4; s "West"; s "pen"; i 40; i 60 ] ]

(* A selection on an aggregate column filters groups after the
   aggregate is computed (HAVING); a selection on a base column is
   evaluated before it (WHERE) even when issued after it, so the
   aggregate only sees the surviving rows. *)
let test_having_stratum () =
  let count =
    Op.Aggregate
      { fn = Expr.Count_star; col = None; level = 2; as_name = Some "n" }
  in
  check_rows "groups of at least 3"
    [ by_region; count; Op.Select (parse "n >= 3") ]
    [ [ i 1; s "East"; s "pen"; i 10; i 3 ];
      [ i 3; s "East"; s "ink"; i 30; i 3 ];
      [ i 5; s "East"; s "pen"; i 50; i 3 ] ];
  check_rows "base selection issued after the count"
    [ by_region; count; Op.Select (parse "amt > 15") ]
    [ [ i 3; s "East"; s "ink"; i 30; i 2 ];
      [ i 5; s "East"; s "pen"; i 50; i 2 ];
      [ i 2; s "West"; s "ink"; i 20; i 2 ];
      [ i 4; s "West"; s "pen"; i 40; i 2 ] ];
  check_rows "HAVING after a WHERE that shrank the group"
    [ by_region; count; Op.Select (parse "n >= 3");
      Op.Select (parse "amt > 15") ]
    []

(* Duplicate elimination compares the visible columns only; the first
   occurrence survives whole, its hidden cells included. *)
let test_dedup_visible_keys () =
  check_rows "distinct (region, item)"
    [ Op.Project "id"; Op.Project "amt"; Op.Dedup ]
    [ [ i 1; s "East"; s "pen"; i 10 ];
      [ i 2; s "West"; s "ink"; i 20 ];
      [ i 3; s "East"; s "ink"; i 30 ];
      [ i 4; s "West"; s "pen"; i 40 ] ]

(* Groups in the level's direction, rows inside a group by the leaf
   order, and rows tied on every key in base order. *)
let test_group_order_ties () =
  check_rows "item desc, then region asc"
    [ Op.Group { basis = [ "item" ]; dir = Grouping.Desc };
      Op.Order { attr = "region"; dir = Grouping.Asc; level = 2 } ]
    [ [ i 1; s "East"; s "pen"; i 10 ];
      [ i 5; s "East"; s "pen"; i 50 ];
      [ i 4; s "West"; s "pen"; i 40 ];
      [ i 3; s "East"; s "ink"; i 30 ];
      [ i 2; s "West"; s "ink"; i 20 ] ]

let () =
  Alcotest.run "sheet_oracle"
    [ ( "oracle",
        [ Alcotest.test_case "aggregate repeated per group" `Quick
            test_aggregate_repeated;
          Alcotest.test_case "HAVING stratum" `Quick test_having_stratum;
          Alcotest.test_case "dedup on visible columns" `Quick
            test_dedup_visible_keys;
          Alcotest.test_case "grouping, ordering and ties" `Quick
            test_group_order_ties ] ) ]
