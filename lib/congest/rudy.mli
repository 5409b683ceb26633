(** RUDY routing-demand estimation (Rectangular Uniform wire DensitY,
    Spindler & Johannes, DATE'07) — the standard router-free congestion
    proxy, and the metric family behind the paper's routability claims.

    Each net spreads an estimated wire volume uniformly over its bounding
    box: a net with half-perimeter [w + h] and wire width 1 contributes
    demand density [(w + h) / (w * h)] to every point of its box.  Summing
    over nets gives a demand map whose hot spots track real router
    congestion remarkably well for its cost.

    Demand is reported per bin, normalised by a uniform per-bin routing
    supply so 1.0 means "demand equals the average supply". *)

type t = {
  nx : int;
  ny : int;
  bin_w : float;
  bin_h : float;
  demand : float array;  (** row-major [iy * nx + ix], in wirelength/area units *)
  supply : float;  (** uniform per-area routing supply used for normalisation *)
}

val of_pins :
  ?pool:Dpp_par.Pool.t ->
  ?arena:Dpp_util.Arena.t ->
  ?nx:int ->
  ?ny:int ->
  Dpp_wirelen.Pins.t ->
  cx:float array ->
  cy:float array ->
  t
(** The demand map of the nets in [pins]'s flat core at centers
    [cx]/[cy].  Default grid: {!Dpp_density.Grid.dims_of_soa}-like sizing
    (~4 movable cells per bin, clamped to 8..256 per side).  The supply is
    calibrated so the design-wide average utilisation of routing area is meaningful across
    designs: [supply = total demand / die area] would always average 1, so
    instead the supply is [2 * sqrt(total cell area) / die area]-free:
    we use the simple convention [supply = 1.0] wiring unit per unit area,
    leaving interpretation to the ratio statistics below.

    With [pool], nets scatter into {!Dpp_par.Pool.chunk_count} fixed
    chunk-local grids merged per bin in ascending chunk order: the map is
    bit-stable across worker counts (but not bit-equal to the serial
    scatter, whose single grid accumulates in net order).

    With [arena], the demand grid and the chunk-local scratch come from
    the arena instead of fresh allocation (bit-identical result): the
    routability loop evaluates RUDY every round without allocating.  The
    returned map then aliases arena buffers — it is invalidated by the
    next call against the same arena.

    Degenerate inputs are clamped rather than rejected: non-positive
    [nx]/[ny] collapse to the single-bin grid, and a zero-extent die
    (zero-height rows, point outlines) falls back to unit bins so the
    per-area normalisation never divides by zero. *)

val compute :
  pins:Dpp_wirelen.Pins.t -> Dpp_netlist.Design.t -> cx:float array -> cy:float array -> t
(** [of_pins pins], kept for [perfbench/]; the design is ignored. *)

type stats = {
  max_ratio : float;  (** hottest bin demand / supply *)
  avg_ratio : float;
  p95_ratio : float;  (** 95th percentile *)
  ace_ratio : float;
      (** ACE-style metric: mean demand/supply over the hottest 5% of bins
          (at least one) — the headline congestion-overflow number the
          routability loop steers and reports *)
  overflowed_bins : float;  (** fraction of bins with demand > supply *)
}

val stats : t -> stats

val ratio_at : t -> ix:int -> iy:int -> float
(** Demand/supply of one bin. *)

val hotspots : t -> count:int -> (int * int * float) list
(** The [count] hottest bins as [(ix, iy, ratio)], hottest first. *)
