(** Exact (rectangle-overlap) density accounting over a flat
    {!Dpp_netlist.Soa} view (its unoriented cell shapes, movable cells
    only) — the stopping criterion of the global placement loop at every
    multilevel level and a reported quality metric. *)

val bin_usage :
  ?frozen:(int -> bool) ->
  Dpp_netlist.Soa.t ->
  Grid.t ->
  cx:float array ->
  cy:float array ->
  float array
(** Movable-cell area per bin by exact rectangle overlap at the given cell
    centers (fresh array). *)

val total_overflow :
  ?frozen:(int -> bool) ->
  Dpp_netlist.Soa.t ->
  Grid.t ->
  target_density:float ->
  cx:float array ->
  cy:float array ->
  float
(** [sum_b max(0, usage_b - target * capacity_b)] normalised by total
    movable area — 0 means fully spread, values near 1 mean a pile-up. *)

val max_density : Dpp_netlist.Soa.t -> Grid.t -> cx:float array -> cy:float array -> float
(** Maximum bin usage / capacity ratio (bins with zero capacity but nonzero
    usage report [infinity]). *)
