(** Structure-aware netlist coarsening for multilevel global placement.

    A {!level} maps a fine netlist onto a coarse one, both
    {!Dpp_netlist.Soa} views: every fine cell
    belongs to exactly one cluster, every cluster is one coarse cell.
    The first level seeds one cluster per datapath group ({!Dpp_structure.Dgroup})
    — a bit-slice is never split across clusters — then matches the
    remaining movable cells by heavy-edge scores over the deduplicated
    cell/net adjacency ({!Dpp_netlist.Soa}), with an area cap and
    seeded deterministic tie-breaking.  Fixed cells and pads are
    preserved one-to-one.

    Determinism: all randomness comes from the caller's seed through
    {!Dpp_util.Rng}; building the same design with the same seed yields
    identical levels, independent of wall clock or worker count. *)

type level = {
  fine : Dpp_netlist.Soa.t;
      (** the finer netlist; the first level's is the caller's view itself *)
  coarse : Dpp_netlist.Soa.t;
  cluster_of : int array;
      (** fine cell id -> coarse cell id; defined for {e every} fine
          cell (fixed cells map to their preserved singleton) *)
  members : int array array;
      (** coarse cell id -> fine member ids, ascending *)
  group_of : (int * Dpp_structure.Dgroup.t) list;
      (** coarse ids that collapse a whole datapath group, with the
          group they carry (its member order is the bit order) *)
  protected : bool array;
      (** coarse ids that must stay singletons at deeper levels (group
          clusters and clusters inherited from protected fine cells) *)
}

val of_soa :
  ?arena:Dpp_util.Arena.t ->
  ?groups:Dpp_structure.Dgroup.t list ->
  ?min_cells:int ->
  ?max_levels:int ->
  ?area_cap_factor:float ->
  seed:int ->
  Dpp_netlist.Soa.t ->
  level list
(** [of_soa ~groups ~seed s] is the coarsening hierarchy, finest level
    first ([levels.(k).coarse == levels.(k+1).fine], and the first
    level's [fine == s]).  [groups] seeds
    the first level only (deeper levels keep those clusters intact as
    protected singletons).  Stops when the coarse netlist has at most
    [min_cells] movables (default 500), after [max_levels] levels
    (default 3), or when a level shrinks the movable count by less than
    10%.  [area_cap_factor] (default 4.0) bounds a merged cluster's area
    to that multiple of the level's mean movable-cell area.  Returns
    [[]] when the netlist is already at or below the floor, or when its
    largest connected component of movable cells is itself at or below
    [min_cells] — a PEKO-style dust of tiny islands where heavy-edge
    matching degenerates; flat GP is the better start there. *)

val build :
  groups:Dpp_structure.Dgroup.t list ->
  min_cells:int ->
  max_levels:int ->
  seed:int ->
  Dpp_netlist.Design.t ->
  level list
(** [of_soa (Soa.of_design d)], kept for [perfbench/]; library code
    calls {!of_soa}. *)

val cluster_centers :
  ?arena:Dpp_util.Arena.t ->
  level ->
  cx:float array ->
  cy:float array ->
  float array * float array
(** Area-weighted centroid of each cluster's members, evaluated over the
    fine center arrays — the upward (restriction) half of the V-cycle.
    Fixed singletons keep their fine centers.  With [arena], the returned
    arrays are arena buffers keyed by the coarse netlist's name: valid
    until the next restriction over the same hierarchy, which is exactly
    the V-cycle's reuse pattern. *)

val interpolate :
  level -> ccx:float array -> ccy:float array -> cx:float array -> cy:float array -> unit
(** The downward (prolongation) half: writes each movable member's
    center into the fine arrays [cx]/[cy] from its cluster's solved
    center [ccx]/[ccy].  Plain cluster members land on the cluster
    center; group clusters are re-seeded in bit order at their idealized
    array offsets from the cluster's (clamped) origin.  Fixed cells are
    left untouched. *)
