(** Physical evaluation plans — the executor.

    Every materialization runs here: {!Materialize.full} executes
    [of_sheet s], the semantic cache's subsumed hits execute
    [Sort (keys, Filter (p, Scan cached))], and {!Incremental} appends
    one node over a scan of the parent's materialization. The
    compiled plan is the shape in which the paper's prototype pushed
    manipulations down to its RDBMS, so it can also be inspected
    ([explain], the REPL's [explain] command) and optimized.

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
(** Run the plan. Opens a Sheetdoctor profile region (kind ["plan"],
    keyed on [uid], default [0]; collapsed into an enclosing region
    of the same uid) for the duration, so fused-run extents,
    columnar-vs-row path attribution and counter deltas land in
    {!Sheet_obs.Obs.Profile}. *)

(** {2 Instrumented execution — EXPLAIN ANALYZE}

    A plan is a chain (every node has at most one child), so a profile
    mirrors that chain: per node, the label {!explain} would print,
    the output cardinality, and self wall time (child excluded). The
    nodes run through the same code as {!execute}, one node at a
    time instead of fused. *)

type profile = {
  p_label : string;
  p_rows_out : int;
  p_time_ns : int;  (** this node only, child excluded *)
  p_child : profile option;
}

val execute_instrumented : ?uid:int -> node -> Relation.t * profile
(** Same result as {!execute} (property-tested, sink on or off), plus
    the per-node profile. Emits one [plan.node] span per node and
    bumps the [plan.*] counters whatever the sink. Also records a
    Sheetdoctor profile region (kind ["plan"], keyed on [uid]) with
    one node entry per plan node, including allocation deltas. *)

val explain_analyze : ?uid:int -> node -> Relation.t * profile * string
(** {!execute_instrumented} plus the rendered tree — one line per node
    with rows, self time, and percentage of total. *)

val profile_total_ns : profile -> int

val render_profile : profile -> string

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
