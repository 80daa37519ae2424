(** Incremental materialization.

    Section V observes that recomputing a query from scratch after
    every small step "is likely to take too long" and that the
    commutativity structure of the algebra can "reduce this cost
    substantially". This module is that reduction: given a parent
    sheet whose materialization is known and the operator that
    produced a child sheet, it derives the child's materialization
    without replaying the whole query state, whenever the operator's
    effect on the materialized relation is local:

    - projection / inverse projection: the full materialization is
      unchanged (hidden columns are presentational) — unless duplicate
      elimination is active, whose key is the visible column set;
    - grouping and ordering operators: a [Sort] of the parent rows
      (their guards ensure no computed value changes);
    - a selection applied at the highest stratum (no computed column
      defined after it): a [Filter] of the parent rows;
    - a new aggregation or formula column: an [Extend_aggregate] /
      [Extend_formula] over the parent rows;
    - duplicate elimination with nothing hidden and no computed
      column: a [Distinct_on] of the parent rows.

    Each derivation is one {!Plan} node over [Scan parent_full], run
    by {!Plan.execute} — the same executor as {!Materialize.full};
    the strata themselves live in {!Plan.of_sheet}. Anything else —
    duplicate elimination with computed columns, renames, binary
    operators, query modification — answers [None] and falls back to
    {!Materialize.full}. Derivations are exact: the result holds the
    rows {!Materialize.full} would compute (checked against the
    reference interpreter by the property suite). *)

open Sheet_rel

val derive :
  parent:Spreadsheet.t ->
  op:Op.t ->
  child:Spreadsheet.t ->
  Relation.t option
(** Derive the child's full materialization from the parent's
    (obtained via {!Materialize.full_cached}); [None] when the
    operator requires full recomputation. *)

val materialize_after :
  parent:Spreadsheet.t -> op:Op.t -> child:Spreadsheet.t -> Relation.t
(** {!derive}, falling back to {!Materialize.full}; in either case the
    result is seeded into the materialization cache under the child's
    uid, so subsequent {!Materialize.full_cached} and
    {!Materialize.visible} calls are free. *)
