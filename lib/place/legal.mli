(** Tetris legalization: row assignment with left-to-right packing around
    fixed obstacles (and, in the structure-aware flow, around snapped
    datapath groups).

    Cells are processed in ascending target-x order; each is offered a
    set of rows' free intervals ({!Intervals} stores, O(log n) best-gap
    queries) and takes the least-displacement feasible slot (squared
    Euclidean displacement of the cell center).  With a multi-worker
    pool, rows are partitioned into the fixed 16-chunk scheme and
    legalized chunk-locally in parallel; a cell whose best local slot
    could be beaten or tied by a row outside its chunk is spilled to a
    serial ascending-chunk merge pass that searches every row, so the
    assignment is bit-identical at every worker count.  Site-grid
    snapping is applied by {!Abacus} afterwards. *)

type t = {
  assignment : int array;  (** cell -> row index (-1 for skipped/fixed cells) *)
  cx : float array;  (** legalized centers *)
  cy : float array;
  failed : int list;  (** cells that fit in no row (die overfull) *)
}

val run :
  Dpp_netlist.Soa.t ->
  ?pool:Dpp_par.Pool.t ->
  ?arena:Dpp_util.Arena.t ->
  ?extra_obstacles:Dpp_geom.Rect.t list ->
  ?skip:(int -> bool) ->
  ?bound:Dpp_geom.Rect.t ->
  cx:float array ->
  cy:float array ->
  unit ->
  t
(** [skip] marks cells to leave untouched (snapped group members).  Input
    arrays are not modified.  [pool] (default {!Dpp_par.Pool.serial})
    fans the chunk-local phase out over worker domains; the result does
    not depend on the worker count.  The fixed cells of the flat view
    ({!Dpp_netlist.Soa.fixed_obstacles}) are always obstacles.  [arena] recycles the per-row
    free-interval stores across runs (every store is reset before use,
    so the result is bit-identical with or without one).

    [bound] is the region-bounded mode behind incremental ECO
    re-placement: only rows overlapping the rectangle get free intervals
    and those are clipped to its x-span, so every non-skipped cell is
    legalized {e inside} the bound (pass the frozen cells' rectangles as
    [extra_obstacles] to keep them from being overlapped).  The bounded
    run keeps the worker-count determinism contract. *)

val row_segments : Dpp_netlist.Soa.t -> Dpp_geom.Rect.t list -> int -> (float * float) list
(** The free x-spans of a row given obstacle rectangles, shrunk inward to
    the site grid — shared with {!Abacus}. *)
