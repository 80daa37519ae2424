(** Physical evaluation plans — the executor.

    Every materialization runs here: {!Materialize.full} executes
    [of_sheet s], the semantic cache's subsumed hits execute
    [Sort (keys, Filter (p, Scan cached))], and {!Incremental} appends
    one node over a scan of the parent's materialization. The
    compiled plan is the shape in which the paper's prototype pushed
    manipulations down to its RDBMS, so it can also be inspected
    ([explain], the REPL's [explain] command), profiled
    ({!explain_analyze}, the profile of the run that served it) and
    optimized.

    {!of_sheet} holds the precedence strata (DESIGN.md §4): filters
    sit at their stratum, aggregate extensions carry their grouping
    basis, and a final sort realizes the recursive grouping. Blocking
    nodes call the one implementation of their operator in
    {!Sheet_rel.Rel_algebra}. {!optimize} applies classical,
    semantics-preserving rewrites:

    - {e filter fusion}: adjacent filters merge into one conjunction
      (one pass over the data instead of several);
    - {e filter pushdown}: a filter slides below formula extensions it
      does not read (never below an aggregate extension — that would
      change the aggregate, i.e. turn HAVING into WHERE — and never
      below duplicate elimination, which could change the surviving
      representative);
    - {e projection pruning}: when the consumer only needs some
      columns ([~keep]), a projection is pushed onto the scan and
      extensions whose outputs are never consumed are dropped;
    - {e predicate pruning} (via {!Sheet_rel.Sheetsolve}): a fused
      filter proved unsatisfiable compiles its subtree to an empty
      scan of the right schema without reading a row, and conjuncts
      proved tautological or implied by the remaining conjuncts are
      dropped. Both proofs hold over every row (nulls included), so
      {!execute} on the optimized plan still equals the reference
      interpreter in [test/oracle.ml] — property-tested. *)

open Sheet_rel

type node =
  | Scan of Relation.t
  | Project of string list * node  (** keep the named columns *)
  | Filter of Expr.t * node
  | Distinct_on of string list * node
      (** duplicate elimination keyed on the given columns; first
          occurrence survives *)
  | Extend_formula of extend * node
  | Extend_aggregate of extend_agg * node
  | Sort of (string * [ `Asc | `Desc ]) list * node

and extend = { name : string; ty : Value.vtype; expr : Expr.t }

and extend_agg = {
  agg_name : string;
  agg_ty : Value.vtype;
  fn : Expr.agg_fun;
  arg : Expr.t option;
  basis : string list;  (** grouping columns of the aggregate's level *)
}

val of_sheet : Spreadsheet.t -> node
(** Compile the sheet's query state: all columns (hidden ones
    included), rows in presentation order. *)

val sort_keys : Grouping.t -> (string * [ `Asc | `Desc ]) list
(** {!Grouping.sort_keys} with the directions {!Sort} takes: the flat
    ordering that emulates the recursive grouping. *)

val extension : Grouping.t -> Computed.t -> node -> node
(** The node that appends a computed column over the given plan
    ([Extend_formula] or [Extend_aggregate] with the basis of the
    column's group level under the given grouping). *)

val execute : ?uid:int -> node -> Relation.t
(** Run the plan: the scan, then each maximal run of streaming nodes
    (Filter / Project / Extend_formula) fused into one pass (a leading
    run of filters straight over the scan may run as compiled
    selection vectors), and each blocking node (Distinct_on,
    Extend_aggregate, Sort) through {!Sheet_rel.Rel_algebra}. Runs in
    a Sheetdoctor profile region (kind ["plan"], keyed on [uid],
    default [0]; collapsed into an enclosing region of the same uid):
    the scan and every run become one profile node each, with rows in
    and out, time, allocation and path; each node kind gets a
    [plan.node.<kind>] sample; a recording sink gets one [plan.node]
    event per profile node. *)

val explain_analyze :
  ?uid:int -> node -> Relation.t * Sheet_obs.Obs.Profile.t option
(** EXPLAIN ANALYZE: {!execute}, plus the profile record that this run
    committed ({!Sheet_obs.Obs.Profile.render_record} prints it). The
    nodes are those of the served run, so a fused run is one node
    whose label joins its plan nodes' labels with [" + "]. [None] when
    profile collection is disabled or an enclosing region of the same
    uid absorbed the run. *)

val optimize : ?keep:string list -> node -> node
(** Rewrite the plan; [keep] lists the columns the consumer needs
    (defaults to all columns the plan produces). Semantics are
    preserved with respect to the kept columns. *)

val explain : node -> string
(** Indented operator tree, one line per node, leaves last. *)

val output_columns : node -> string list
(** Schema (names) the plan produces, in order. *)

val output_schema : node -> Sheet_rel.Schema.t
(** The typed schema the plan produces — usable before execution. *)
