(* A deliberately naive reference interpreter of a spreadsheet: its
   base relation and query state, evaluated straight from the paper's
   definitions. It shares no code with the executor or the
   relational operators under it (no caches, hash tables, columnar
   views or parallel scans): rows are association lists from column
   name to value, every collection is a list and every column lookup
   a linear scan. It is slow on purpose; the tests use it as the
   ground truth the executor is checked against.

   What it follows, in evaluation order:

   - selection (Def. 5) keeps the rows a predicate holds on, and is
     evaluated right after the highest-ranked column it reads is
     available: base columns have rank 0 and the k-th computed column
     rank k. So a selection on base columns filters before every
     aggregate (WHERE) and one on an aggregate filters after it
     (HAVING), whatever order the user issued them in (Theorem 2);
   - duplicate elimination compares the visible base columns only
     (projection hides a column, Def. 6) and keeps the first
     occurrence whole, hidden values included; it runs with the
     rank-0 selections;
   - an aggregate column (Def. 11) holds f(arg) over the rows of each
     group at its level, repeated on every row of the group
     (Table III); a formula column (Def. 12) is computed row by row;
   - grouping and ordering (Defs. 3–4): the rows are split into the
     groups of the outermost level, the groups are ordered by the
     level's direction (or by an order-by-value column), and each
     group is arranged the same way by the next level; the finest
     groups are ordered by the leaf order. Ties keep base order. *)

open Sheet_rel
open Sheet_core

type row = (string * Value.t) list

let get (row : row) name =
  match List.assoc_opt name row with
  | Some v -> v
  | None -> failwith ("oracle: no column " ^ name)

let holds row pred = Expr_eval.eval_pred ~lookup:(get row) pred
let value row e = Expr_eval.eval ~lookup:(get row) e

let compare_on names (a : row) (b : row) =
  List.fold_left
    (fun c n -> if c <> 0 then c else Value.compare (get a n) (get b n))
    0 names

(* Split numbered rows into groups equal on [names] ({!Value.equal}
   is [Value.compare = 0]): groups in order of first occurrence,
   members in input order. Sorting by key and cutting the runs keeps
   this O(n log n), so the oracle stays usable on 10k rows. *)
let groups_numbered names numbered =
  let sorted =
    List.stable_sort (fun (_, a) (_, b) -> compare_on names a b) numbered
  in
  let runs =
    List.fold_left
      (fun runs (i, row) ->
        match runs with
        | ((_, first) :: _ as run) :: rest when compare_on names first row = 0
          ->
            ((i, row) :: run) :: rest
        | _ -> [ (i, row) ] :: runs)
      [] sorted
  in
  List.sort
    (fun a b -> compare (fst (List.hd a)) (fst (List.hd b)))
    (List.map List.rev runs)

let groups names rows =
  List.map (List.map snd)
    (groups_numbered names (List.mapi (fun i row -> (i, row)) rows))

let first_occurrences names rows = List.map List.hd (groups names rows)

(* The rank of a column: 0 for base columns, k for the k-th computed
   column. *)
let rank (state : Query_state.t) name =
  let rec go k = function
    | [] -> 0
    | (c : Computed.t) :: rest ->
        if c.Computed.name = name then k else go (k + 1) rest
  in
  go 1 state.Query_state.computed

let selections_at state k rows =
  List.fold_left
    (fun rows (s : Query_state.selection) ->
      let cols = Expr.columns s.Query_state.pred in
      if List.fold_left (fun m c -> max m (rank state c)) 0 cols = k then
        List.filter (fun row -> holds row s.Query_state.pred) rows
      else rows)
    rows state.Query_state.selections

(* g_i: the attributes of every level above paper level [level]
   (level 1 is the whole sheet). *)
let level_basis (grouping : Grouping.t) level =
  List.concat
    (List.filteri (fun i _ -> i < level - 1)
       (List.map (fun (l : Grouping.level) -> l.Grouping.basis_add)
          grouping.Grouping.levels))

let add_column grouping rows (c : Computed.t) =
  let column row v = row @ [ (c.Computed.name, v) ] in
  match c.Computed.spec with
  | Computed.Formula e -> List.map (fun row -> column row (value row e)) rows
  | Computed.Aggregate { fn; arg; level } ->
      let numbered = List.mapi (fun i row -> (i, row)) rows in
      let result members =
        Expr_eval.apply_agg fn
          (List.map
             (fun (_, row) ->
               match arg with Some e -> value row e | None -> Value.Null)
             members)
      in
      List.concat_map
        (fun members ->
          let v = result members in
          List.map (fun (i, row) -> (i, column row v)) members)
        (groups_numbered (level_basis grouping level) numbered)
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.map snd

let compare_by keys a b =
  List.fold_left
    (fun c (name, dir) ->
      if c <> 0 then c
      else
        let c = Value.compare (get a name) (get b name) in
        match dir with Grouping.Asc -> c | Grouping.Desc -> -c)
    0 keys

(* Presentation order: nest the levels outermost first. *)
let rec arrange (levels : Grouping.level list) leaf_order rows =
  match levels with
  | [] -> List.stable_sort (compare_by leaf_order) rows
  | level :: finer ->
      let keys =
        Option.to_list level.Grouping.order_by_value
        @ List.map (fun a -> (a, level.Grouping.dir)) level.Grouping.basis_add
      in
      let ordered =
        List.stable_sort
          (fun a b -> compare_by keys (List.hd a) (List.hd b))
          (groups level.Grouping.basis_add rows)
      in
      List.concat_map (arrange finer leaf_order) ordered

let full (sheet : Spreadsheet.t) =
  let state = sheet.Spreadsheet.state in
  let grouping = state.Query_state.grouping in
  let base_schema = Relation.schema sheet.Spreadsheet.base in
  let base_names = Schema.names base_schema in
  let rows =
    List.map
      (fun r -> List.combine base_names (Row.to_list r))
      (Relation.rows sheet.Spreadsheet.base)
  in
  let rows = selections_at state 0 rows in
  let rows =
    if state.Query_state.dedup then
      first_occurrences
        (List.filter
           (fun n -> not (List.mem n state.Query_state.hidden))
           base_names)
        rows
    else rows
  in
  let rows, _ =
    List.fold_left
      (fun (rows, k) c ->
        (selections_at state k (add_column grouping rows c), k + 1))
      (rows, 1) state.Query_state.computed
  in
  let rows =
    arrange grouping.Grouping.levels grouping.Grouping.leaf_order rows
  in
  let schema =
    List.fold_left
      (fun schema (c : Computed.t) ->
        Schema.append schema
          { Schema.name = c.Computed.name; ty = c.Computed.ty })
      base_schema state.Query_state.computed
  in
  Relation.unsafe_make schema
    (List.map (fun row -> Row.of_list (List.map snd row)) rows)

let visible (sheet : Spreadsheet.t) =
  let rel = full sheet in
  let schema = Relation.schema rel in
  let names = Schema.names schema in
  let hidden = sheet.Spreadsheet.state.Query_state.hidden in
  let keep = List.filter (fun n -> not (List.mem n hidden)) names in
  Relation.unsafe_make (Schema.restrict schema keep)
    (List.map
       (fun r ->
         let row = List.combine names (Row.to_list r) in
         Row.of_list (List.map (get row) keep))
       (Relation.rows rel))

(* Same schema and the same rows in the same order: presentation order
   is part of a sheet's result ({!Relation.equal} compares multisets). *)
let same a b =
  Schema.equal (Relation.schema a) (Relation.schema b)
  && List.equal Row.equal (Relation.rows a) (Relation.rows b)
