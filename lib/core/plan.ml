open Sheet_rel
module Obs = Sheet_obs.Obs

type node =
  | Scan of Relation.t
  | Project of string list * node
  | Filter of Expr.t * node
  | Distinct_on of string list * node
  | Extend_formula of extend * node
  | Extend_aggregate of extend_agg * node
  | Sort of (string * [ `Asc | `Desc ]) list * node

and extend = { name : string; ty : Value.vtype; expr : Expr.t }

and extend_agg = {
  agg_name : string;
  agg_ty : Value.vtype;
  fn : Expr.agg_fun;
  arg : Expr.t option;
  basis : string list;
}

(* ---------- compilation ----------

   The strata live here: selections on base columns and duplicate
   elimination first, then each computed column in definition order
   followed by the selections whose highest-ranked column it is, then
   one sort for the grouping (DESIGN.md §4). *)

let sort_keys grouping =
  List.map
    (fun (attr, dir) ->
      (attr, match dir with Grouping.Asc -> `Asc | Grouping.Desc -> `Desc))
    (Grouping.sort_keys grouping)

let extension grouping (c : Computed.t) plan =
  match c.Computed.spec with
  | Computed.Formula expr ->
      Extend_formula
        ({ name = c.Computed.name; ty = c.Computed.ty; expr }, plan)
  | Computed.Aggregate { fn; arg; level } ->
      Extend_aggregate
        ( { agg_name = c.Computed.name;
            agg_ty = c.Computed.ty;
            fn;
            arg;
            basis = Grouping.cumulative_basis grouping level },
          plan )

let of_sheet (sheet : Spreadsheet.t) =
  let state = sheet.Spreadsheet.state in
  let grouping = Spreadsheet.grouping sheet in
  let stratum pred = Query_state.selection_stratum state pred in
  let filters_at k plan =
    List.fold_left
      (fun plan (s : Query_state.selection) ->
        if stratum s.Query_state.pred = k then Filter (s.Query_state.pred, plan)
        else plan)
      plan state.Query_state.selections
  in
  let plan = filters_at 0 (Scan sheet.Spreadsheet.base) in
  let plan =
    if state.Query_state.dedup then
      let visible_base =
        List.filter
          (fun n -> not (List.mem n state.Query_state.hidden))
          (Schema.names (Spreadsheet.base_schema sheet))
      in
      Distinct_on (visible_base, plan)
    else plan
  in
  let plan, _ =
    List.fold_left
      (fun (plan, k) c -> (filters_at k (extension grouping c plan), k + 1))
      (plan, 1) state.Query_state.computed
  in
  match sort_keys grouping with [] -> plan | keys -> Sort (keys, plan)

(* ---------- execution ---------- *)

(* Every node has zero (Scan) or one child: a plan is a chain. *)

let child = function
  | Scan _ -> None
  | Project (_, c)
  | Filter (_, c)
  | Distinct_on (_, c)
  | Extend_formula (_, c)
  | Extend_aggregate (_, c)
  | Sort (_, c) ->
      Some c

(* ---------- node labels (shared by explain / explain analyze) ---- *)

let node_label = function
  | Scan rel ->
      Printf.sprintf "Scan (%d rows, %d columns)"
        (Relation.cardinality rel)
        (Schema.arity (Relation.schema rel))
  | Project (cols, _) ->
      Printf.sprintf "Project [%s]" (String.concat ", " cols)
  | Filter (pred, _) -> Printf.sprintf "Filter %s" (Expr.to_string pred)
  | Distinct_on (keys, _) ->
      Printf.sprintf "Distinct on [%s]" (String.concat ", " keys)
  | Extend_formula (e, _) ->
      Printf.sprintf "Extend %s = %s" e.name (Expr.to_string e.expr)
  | Extend_aggregate (e, _) ->
      Printf.sprintf "ExtendAgg %s = %s(%s) over [%s]" e.agg_name
        (Expr.agg_fun_name e.fn)
        (match e.arg with Some a -> Expr.to_string a | None -> "*")
        (String.concat ", " e.basis)
  | Sort (keys, _) ->
      Printf.sprintf "Sort [%s]"
        (String.concat ", "
           (List.map
              (fun (col, d) ->
                col ^ (match d with `Asc -> " asc" | `Desc -> " desc"))
              keys))

let node_kind = function
  | Scan _ -> "scan"
  | Project _ -> "project"
  | Filter _ -> "filter"
  | Distinct_on _ -> "distinct"
  | Extend_formula _ -> "extend"
  | Extend_aggregate _ -> "extend-agg"
  | Sort _ -> "sort"

(* Everything one run leaves behind: [nodes] ran as one pass that
   started at [t0] with [a0] bytes allocated. Each node kind gets one
   [plan.node.<kind>] sample of the whole pass; the profile gets one
   node whose label joins the nodes' labels with " + " (a fused run is
   what executed, so EXPLAIN ANALYZE shows it as one line); a
   recording sink gets one [plan.node] event. *)
let observe ?(path = "") ~rows_in ~rows_out ~t0 ~a0 nodes =
  let dt = Obs.now_ns () - t0 in
  List.iter
    (fun node ->
      Obs.Histogram.record
        (Obs.Histogram.histogram (Obs.h_plan_node_prefix ^ node_kind node))
        dt)
    nodes;
  let kind = match nodes with [ node ] -> node_kind node | _ -> "run" in
  Obs.Profile.note_node ~rows_in ~rows_out ~path ~kind
    ~label:(String.concat " + " (List.map node_label nodes))
    ~time_ns:dt
    ~alloc_bytes:(Gc.allocated_bytes () -. a0) ();
  Obs.emit ~kind ~rows_in ~rows_out ~start_ns:t0 ~dur_ns:dt "plan.node"

(* ---------- execution ----------

   [execute] linearizes the plan and compiles each maximal run of
   streaming nodes (Filter / Project / Extend_formula) into per-row
   closures applied in a single pass over the current row array — one
   intermediate array per run instead of one per node. Blocking nodes
   (Distinct_on, Extend_aggregate, Sort) cut a run: they need the
   whole input and call Rel_algebra's one implementation of their
   operator. Every run, and the scan, is reported through [observe]. *)

let linearize node =
  let rec go acc = function
    | Scan rel -> (rel, acc)
    | n -> (
        match child n with
        | Some c -> go (n :: acc) c
        | None -> invalid_arg "Plan.linearize: inner node without child")
  in
  go [] node

type step = Keep of (Row.t -> bool) | Map of (Row.t -> Row.t)

(* Compile one streaming node against its input schema; returns the
   per-row step and the output schema. Type errors surface as the
   same [Algebra_error] the unfused interpreter raised. *)
let compile_streaming schema = function
  | Filter (pred, _) ->
      (match Expr_check.check_pred schema pred with
      | Ok () -> ()
      | Error msg ->
          raise (Rel_algebra.Algebra_error ("selection: " ^ msg)));
      let index = Schema.compile_index schema in
      ( Keep
          (fun row ->
            Expr_eval.eval_pred
              ~lookup:(fun name -> Row.get row (index name))
              pred),
        schema )
  | Project (cols, _) ->
      let out = Schema.restrict schema cols in
      let positions =
        Array.of_list (List.map (Schema.index_exn schema) cols)
      in
      (Map (fun row -> Row.project_arr row positions), out)
  | Extend_formula ({ name; ty; expr }, _) ->
      let out = Schema.append schema { Schema.name; ty } in
      let index = Schema.compile_index schema in
      ( Map
          (fun row ->
            Row.append1 row
              (Expr_eval.eval
                 ~lookup:(fun name -> Row.get row (index name))
                 expr)),
        out )
  | Scan _ | Distinct_on _ | Extend_aggregate _ | Sort _ ->
      invalid_arg "Plan.compile_streaming: blocking node"

let is_streaming = function
  | Filter _ | Project _ | Extend_formula _ -> true
  | Scan _ | Distinct_on _ | Extend_aggregate _ | Sort _ -> false

let run_streaming ?rel nodes schema data =
  (* When this run starts directly on a scan's relation, its leading
     Filter nodes can execute over the relation's Sheetcol image as
     compiled selection vectors. Checks run first (same Algebra_error
     the step compiler raises), and a predicate that does not compile
     drops the whole prefix back into the fused row loop below. *)
  let nodes, data =
    match rel with
    | Some r when Relation.to_array r == data -> (
        let rec split preds acc = function
          | (Filter (p, _) as n) :: rest -> split (p :: preds) (n :: acc) rest
          | rest -> (List.rev preds, List.rev acc, rest)
        in
        let preds, consumed, rest = split [] [] nodes in
        if preds = [] then (nodes, data)
        else begin
          List.iter
            (fun p ->
              match Expr_check.check_pred schema p with
              | Ok () -> ()
              | Error msg ->
                  raise (Rel_algebra.Algebra_error ("selection: " ^ msg)))
            preds;
          let a0 = Gc.allocated_bytes () in
          let t0 = Obs.now_ns () in
          match Rel_algebra.columnar_filter r preds with
          | Some out ->
              observe ~path:"columnar" ~rows_in:(Array.length data)
                ~rows_out:(Array.length out) ~t0 ~a0 consumed;
              (rest, out)
          | None -> (nodes, data)
        end)
    | _ -> (nodes, data)
  in
  if nodes = [] then (schema, data)
  else begin
  let steps, out_schema =
    List.fold_left
      (fun (steps, schema) node ->
        let step, schema = compile_streaming schema node in
        (step :: steps, schema))
      ([], schema) nodes
  in
  let steps = Array.of_list (List.rev steps) in
  let nsteps = Array.length steps in
  let a0 = Gc.allocated_bytes () in
  let t0 = Obs.now_ns () in
  let n = Array.length data in
  let out =
    Par.concat
      (Par.run ~n (fun lo hi ->
           let buf = Array.make (hi - lo) data.(lo) in
           let k = ref 0 in
           for i = lo to hi - 1 do
             let row = ref (Array.unsafe_get data i) in
             let keep = ref true in
             let j = ref 0 in
             while !keep && !j < nsteps do
               (match steps.(!j) with
               | Keep f -> keep := f !row
               | Map f -> row := f !row);
               incr j
             done;
             if !keep then begin
               Array.unsafe_set buf !k !row;
               incr k
             end
           done;
           if !k = hi - lo then buf else Array.sub buf 0 !k))
  in
  observe ~path:"fused" ~rows_in:n ~rows_out:(Array.length out) ~t0 ~a0
    nodes;
  (out_schema, out)
  end

let run_blocking node schema data =
  let a0 = Gc.allocated_bytes () in
  let t0 = Obs.now_ns () in
  let input = Relation.unsafe_of_array schema data in
  let out =
    match node with
    | Distinct_on (keys, _) -> Rel_algebra.distinct_on keys input
    | Extend_aggregate ({ agg_name; agg_ty; fn; arg; basis }, _) ->
        Rel_algebra.extend_aggregate agg_name agg_ty ~basis fn arg input
    | Sort (keys, _) -> Rel_algebra.sort keys input
    | Scan _ | Filter _ | Project _ | Extend_formula _ ->
        invalid_arg "Plan.run_blocking: streaming node"
  in
  observe ~path:"blocking" ~rows_in:(Array.length data)
    ~rows_out:(Relation.cardinality out) ~t0 ~a0 [ node ];
  (Relation.schema out, Relation.to_array out)

let execute_raw node =
  let base, ops = linearize node in
  let a0 = Gc.allocated_bytes () in
  let t0 = Obs.now_ns () in
  let schema = Relation.schema base in
  let data = Relation.to_array base in
  let n = Array.length data in
  observe ~rows_in:n ~rows_out:n ~t0 ~a0 [ Scan base ];
  (* [rel] is the relation whose array [data] still is — only the
     scan's, before any node transformed it — so the first streaming
     run can use its columnar image. *)
  let rec go rel schema data = function
    | [] -> (schema, data)
    | n :: _ as ops when is_streaming n ->
        let rec split acc = function
          | m :: rest when is_streaming m -> split (m :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let run, rest = split [] ops in
        let schema, data = run_streaming ?rel run schema data in
        go None schema data rest
    | n :: rest ->
        let schema, data = run_blocking n schema data in
        go None schema data rest
  in
  let schema, data = go (Some base) schema data ops in
  Relation.unsafe_of_array schema data

(* The served run is the analyzed run: the region returns the record
   it committed, so EXPLAIN ANALYZE shows this run and no other. *)
let explain_analyze ?(uid = 0) node =
  Obs.Profile.region ~kind:"plan" ~uid ~rows_out:Relation.cardinality
    (fun () -> execute_raw node)

let execute ?uid node = fst (explain_analyze ?uid node)

(* ---------- schema of a plan ---------- *)

let rec output_columns = function
  | Scan rel -> Schema.names (Relation.schema rel)
  | Project (cols, _) -> cols
  | Filter (_, child) | Distinct_on (_, child) | Sort (_, child) ->
      output_columns child
  | Extend_formula ({ name; _ }, child) -> output_columns child @ [ name ]
  | Extend_aggregate ({ agg_name; _ }, child) ->
      output_columns child @ [ agg_name ]

let rec output_schema = function
  | Scan rel -> Relation.schema rel
  | Project (cols, child) -> Schema.restrict (output_schema child) cols
  | Filter (_, child) | Distinct_on (_, child) | Sort (_, child) ->
      output_schema child
  | Extend_formula ({ name; ty; _ }, child) ->
      Schema.append (output_schema child) { Schema.name; ty }
  | Extend_aggregate ({ agg_name; agg_ty; _ }, child) ->
      Schema.append (output_schema child)
        { Schema.name = agg_name; ty = agg_ty }

(* ---------- optimization ---------- *)

let union_cols a b =
  a @ List.filter (fun c -> not (List.mem c a)) b

(* Filter fusion: Filter p1 (Filter p2 x) -> Filter (p2 AND p1) x.
   Order inside the conjunction keeps the earlier (inner) predicate
   first, matching replay order. *)
let rec fuse = function
  | Filter (p1, child) -> (
      match fuse child with
      | Filter (p2, grandchild) -> Filter (Expr.And (p2, p1), grandchild)
      | fused -> Filter (p1, fused))
  | Scan rel -> Scan rel
  | Project (cols, c) -> Project (cols, fuse c)
  | Distinct_on (k, c) -> Distinct_on (k, fuse c)
  | Extend_formula (e, c) -> Extend_formula (e, fuse c)
  | Extend_aggregate (e, c) -> Extend_aggregate (e, fuse c)
  | Sort (k, c) -> Sort (k, fuse c)

(* Filter pushdown: a filter may slide below a formula extension whose
   output it does not read. It must NOT cross an aggregate extension
   (HAVING/WHERE distinction) or duplicate elimination (representative
   choice). *)
let rec pushdown = function
  | Filter (pred, child) -> (
      let cols = Expr.columns pred in
      match pushdown child with
      | Extend_formula (e, grandchild) when not (List.mem e.name cols) ->
          Extend_formula (e, pushdown (Filter (pred, grandchild)))
      | Sort (k, grandchild) ->
          (* filtering before sorting is cheaper and order-stable *)
          Sort (k, pushdown (Filter (pred, grandchild)))
      | pushed -> Filter (pred, pushed))
  | Scan rel -> Scan rel
  | Project (cols, c) -> Project (cols, pushdown c)
  | Distinct_on (k, c) -> Distinct_on (k, pushdown c)
  | Extend_formula (e, c) -> Extend_formula (e, pushdown c)
  | Extend_aggregate (e, c) -> Extend_aggregate (e, pushdown c)
  | Sort (k, c) -> Sort (k, pushdown c)

(* Projection pruning: walk down with the set of needed columns; drop
   extensions nobody consumes; project the scan down to what is
   used. Distinct_on blocks pruning below it (all its key columns are
   needed and row identity upstream matters only through them — keys
   are already in [needed] via node_inputs). *)
let rec prune needed = function
  | Scan rel ->
      let present = Schema.names (Relation.schema rel) in
      let keep = List.filter (fun c -> List.mem c needed) present in
      if List.length keep = List.length present then Scan rel
      else Project (keep, Scan rel)
  | Project (cols, c) ->
      let keep = List.filter (fun x -> List.mem x needed) cols in
      Project (keep, prune (union_cols keep []) c)
  | Filter (pred, c) ->
      Filter (pred, prune (union_cols needed (Expr.columns pred)) c)
  | Distinct_on (k, c) -> Distinct_on (k, prune (union_cols needed k) c)
  | Extend_formula (e, c) ->
      if List.mem e.name needed then
        Extend_formula
          ( e,
            prune
              (union_cols
                 (List.filter (fun x -> x <> e.name) needed)
                 (Expr.columns e.expr))
              c )
      else prune needed c
  | Extend_aggregate (e, c) ->
      if List.mem e.agg_name needed then
        let inputs =
          e.basis
          @ (match e.arg with Some x -> Expr.columns x | None -> [])
        in
        Extend_aggregate
          ( e,
            prune
              (union_cols
                 (List.filter (fun x -> x <> e.agg_name) needed)
                 inputs)
              c )
      else prune needed c
  | Sort (k, c) ->
      Sort (k, prune (union_cols needed (List.map fst k)) c)

let and_all = function
  | [] -> Expr.Const (Value.Bool true)
  | p :: ps -> List.fold_left (fun a b -> Expr.And (a, b)) p ps

(* Drop conjuncts that are provably tautological or implied by the
   remaining ones (right-to-left, so of two equivalent conjuncts the
   earlier survives). Sound: implication is proved over every row,
   nulls included, so the filtered multiset is unchanged. *)
let prune_conjuncts ~type_of conjs =
  let arr = Array.of_list conjs in
  let keep = Array.make (Array.length arr) true in
  let kept_except i =
    Array.to_list arr |> List.filteri (fun j _ -> keep.(j) && j <> i)
  in
  for i = Array.length arr - 1 downto 0 do
    let rest = kept_except i in
    if
      Sheetsolve.tautology ~type_of arr.(i)
      || (rest <> [] && Sheetsolve.implies ~type_of (and_all rest) arr.(i))
    then keep.(i) <- false
  done;
  Array.to_list arr |> List.filteri (fun j _ -> keep.(j))

let rec simplify_filters = function
  | Filter (pred, c) -> (
      let c = simplify_filters c in
      let type_of = Schema.type_of (output_schema c) in
      match Expr_simplify.simplify pred with
      | Expr.Const (Value.Bool true) -> c
      | pred ->
          if not (Sheetsolve.satisfiable ~type_of pred) then
            (* a provably-false filter: the whole subtree compiles to
               an empty scan of the same schema *)
            Scan (Relation.empty (output_schema c))
          else begin
            match prune_conjuncts ~type_of (Expr.conjuncts pred) with
            | [] -> c
            | conjs -> Filter (and_all conjs, c)
          end)
  | Scan rel -> Scan rel
  | Project (cols, c) -> Project (cols, simplify_filters c)
  | Distinct_on (k, c) -> Distinct_on (k, simplify_filters c)
  | Extend_formula (e, c) ->
      Extend_formula
        ({ e with expr = Expr_simplify.simplify e.expr }, simplify_filters c)
  | Extend_aggregate (e, c) -> Extend_aggregate (e, simplify_filters c)
  | Sort (k, c) -> Sort (k, simplify_filters c)

let optimize ?keep plan =
  let keep = Option.value keep ~default:(output_columns plan) in
  let plan = fuse plan in
  let plan = pushdown plan in
  let plan = fuse plan in
  let plan = simplify_filters plan in
  prune keep plan

(* ---------- explain ---------- *)

let explain plan =
  let buf = Buffer.create 512 in
  let rec go indent node =
    Buffer.add_string buf
      (Printf.sprintf "%s%s\n" indent (node_label node));
    match child node with
    | Some c -> go (indent ^ "  ") c
    | None -> ()
  in
  go "" plan;
  Buffer.contents buf
