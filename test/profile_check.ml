(* Does an EXPLAIN ANALYZE record describe the run it came from? The
   nodes must form one contiguous chain — the first node reads the
   base relation, each node reads what the previous one produced in
   non-negative time, and the last produces the record's and the
   relation's rows — and every label [Plan.explain] prints must appear
   in exactly one node, in execution order: a fused run's label is the
   " + "-join of consecutive plan labels. A run whose profile note went
   missing breaks both. Shared by test_obs and the obs and doctor
   gates. *)

open Sheet_core
module Profile = Sheet_obs.Obs.Profile

let rec base = function
  | Plan.Scan rel -> rel
  | Plan.Project (_, c)
  | Plan.Filter (_, c)
  | Plan.Distinct_on (_, c)
  | Plan.Extend_formula (_, c)
  | Plan.Extend_aggregate (_, c)
  | Plan.Sort (_, c) ->
      base c

(* [Plan.explain] prints leaves last; reversed, that is execution
   order *)
let plan_labels plan =
  String.split_on_char '\n' (Plan.explain plan)
  |> List.filter (( <> ) "")
  |> List.rev_map String.trim

(* Split [labels] into consecutive groups whose " + "-joins are
   exactly [nodes]. A plan label may itself contain " + " (a formula),
   so every group length that still prefixes the node label is
   tried. *)
let rec covers labels nodes =
  match nodes with
  | [] -> labels = []
  | node :: rest ->
      let rec group acc = function
        | [] -> false
        | l :: ls ->
            let acc = if acc = "" then l else acc ^ " + " ^ l in
            (acc = node && covers ls rest)
            || (String.starts_with ~prefix:acc node && group acc ls)
      in
      group "" labels

let check plan rel (r : Profile.t) =
  let rows = Sheet_rel.Relation.cardinality rel in
  let rec chain expected = function
    | [] -> Ok expected
    | (n : Profile.node) :: rest ->
        if n.n_time_ns < 0 then
          Error (Printf.sprintf "node %S took %d ns" n.n_label n.n_time_ns)
        else if n.n_rows_in = expected then chain n.n_rows_out rest
        else
          Error
            (Printf.sprintf "node %S reads %d rows, its input made %d"
               n.n_label n.n_rows_in expected)
  in
  match chain (Sheet_rel.Relation.cardinality (base plan)) r.p_nodes with
  | Error _ as e -> e
  | Ok last ->
      if r.p_nodes = [] then Error "no profile nodes"
      else if last <> r.p_rows_out || last <> rows then
        Error
          (Printf.sprintf "last node makes %d rows, record %d, relation %d"
             last r.p_rows_out rows)
      else if
        not
          (covers (plan_labels plan)
             (List.map (fun (n : Profile.node) -> n.n_label) r.p_nodes))
      then
        Error
          (Printf.sprintf "node labels [%s] do not cover the plan [%s] once"
             (String.concat "; "
                (List.map (fun (n : Profile.node) -> n.n_label) r.p_nodes))
             (String.concat "; " (plan_labels plan)))
      else Ok ()

(* [Profile.to_json ()] parses back and lists one entry per record in
   the ring, in order, carrying that record's uid, kind and rows. *)
let json_lists_records () =
  let module J = Sheet_obs.Obs_json in
  let entry j =
    match (J.member "uid" j, J.member "kind" j, J.member "rows_out" j) with
    | Some (J.Int uid), Some (J.String kind), Some (J.Int rows) ->
        Some (uid, kind, rows)
    | _ -> None
  in
  let expected =
    List.map
      (fun (r : Profile.t) -> Some (r.p_uid, r.p_kind, r.p_rows_out))
      (Profile.records ())
  in
  match J.parse (J.to_string (Profile.to_json ())) with
  | Error msg -> Error ("profile JSON does not parse: " ^ msg)
  | Ok doc -> (
      match J.member "profiles" doc with
      | Some (J.List entries) when List.map entry entries = expected -> Ok ()
      | _ -> Error "profile JSON does not list one entry per record")
