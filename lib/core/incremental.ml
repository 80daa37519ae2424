open Sheet_rel
module Obs = Sheet_obs.Obs

let c_derivations = Obs.Metrics.counter Obs.k_incremental_derivations
let c_fallbacks = Obs.Metrics.counter Obs.k_incremental_fallbacks

(* The newest computed column of the child, when the operator just
   appended one. *)
let last_computed (child : Spreadsheet.t) =
  match List.rev child.Spreadsheet.state.Query_state.computed with
  | c :: _ -> c
  | [] -> invalid_arg "Incremental.last_computed"

let derive ~(parent : Spreadsheet.t) ~(op : Op.t) ~(child : Spreadsheet.t) =
  let parent_full () = Materialize.full_cached parent in
  (* one node appended over the parent's materialization *)
  let over node =
    Some
      (Plan.execute ~uid:child.Spreadsheet.uid
         (node (Plan.Scan (parent_full ()))))
  in
  let state = child.Spreadsheet.state in
  match op with
  | Op.Project _ | Op.Unproject _ ->
      (* presentational — unless DE keys off the visible column set *)
      if state.Query_state.dedup then None else Some (parent_full ())
  | Op.Group _ | Op.Regroup _ | Op.Ungroup | Op.Order _
  | Op.Order_groups _ -> (
      (* content is unchanged (the engine refused anything that would
         invalidate computed values); only the presentation order
         moves *)
      match Plan.sort_keys (Spreadsheet.grouping child) with
      | [] -> Some (parent_full ())
      | keys -> over (fun scan -> Plan.Sort (keys, scan)))
  | Op.Select pred ->
      (* safe only when the selection lands in the highest stratum:
         nothing recomputes after it *)
      if
        Query_state.selection_stratum state pred
        = List.length state.Query_state.computed
      then over (fun scan -> Plan.Filter (pred, scan))
      else None
  | Op.Aggregate _ | Op.Formula _ ->
      (* a fresh computed column is appended after every existing
         stratum; the appended column cannot disturb the sort keys *)
      over (Plan.extension (Spreadsheet.grouping child) (last_computed child))
  | Op.Dedup ->
      (* equal visible rows are equal full rows only when nothing is
         hidden and no computed column could differ *)
      if
        state.Query_state.hidden = []
        && state.Query_state.computed = []
      then
        over (fun scan ->
            Plan.Distinct_on
              (Schema.names (Spreadsheet.base_schema child), scan))
      else None
  | Op.Rename _ | Op.Product _ | Op.Union _ | Op.Diff _ | Op.Join _ ->
      None

let h_derive = Obs.Histogram.histogram Obs.h_incremental_derive

let materialize_after ~parent ~op ~child =
  (* One profile region per derived child; [derive] reaching the
     parent through [Materialize.full_cached] opens (and commits) its
     own region for the parent's uid, while the fallback
     [Materialize.full child] collapses into this one. *)
  fst
  @@ Obs.Profile.region ~kind:"incremental" ~uid:child.Spreadsheet.uid
       ~rows_out:Relation.cardinality
  @@ fun () ->
  let sp =
    Obs.span ~uid:child.Spreadsheet.uid ~kind:(Op.kind op)
      "incremental.materialize_after"
  in
  let t0 = Obs.now_ns () in
  let rel =
    match derive ~parent ~op ~child with
    | Some rel ->
        Obs.Metrics.incr c_derivations;
        Obs.Histogram.record h_derive (Obs.now_ns () - t0);
        Obs.Profile.note_strategy "incremental";
        rel
    | None ->
        Obs.Metrics.incr c_fallbacks;
        Materialize.full child
  in
  Materialize.seed_cache child rel;
  Obs.finish
    ~rows_out:(if Obs.recording () then Relation.cardinality rel else -1)
    sp;
  rel
