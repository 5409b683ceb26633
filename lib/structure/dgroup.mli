(** Placement-time view of a datapath group: every member cell gets a target
    offset inside an idealized rows-by-stages array.

    Slice [s] of the group occupies (relative) row [s]; stage [k] occupies a
    column whose width is the widest member of that stage (plus a site of
    spacing).  Offsets are {e center} offsets from the group origin (the
    lower-left corner of the idealized array), which stays a free quantity:
    the alignment potential is translation-invariant. *)

type t = {
  group : Dpp_netlist.Groups.t;
  cells : int array;  (** member cell ids *)
  off_x : float array;  (** target center offset per member *)
  off_y : float array;
  width : float;  (** idealized array width *)
  height : float;
}

val build :
  ?stage_order:int array ->
  ?slice_order:int array ->
  ?fold:int ->
  Dpp_netlist.Soa.t ->
  Dpp_netlist.Groups.t ->
  t
(** [stage_order.(k)] is the array column where logical stage [k] lands
    (default identity); [slice_order.(s)] likewise for rows.  [fold] splits
    the slices into that many serpentine column blocks (default: whatever
    balances the footprint aspect ratio; 1 = classic one-row-per-slice).
    @raise Invalid_argument if the group has no placeable member. *)

val build_all : Dpp_netlist.Soa.t -> Dpp_netlist.Groups.t list -> t list
(** Groups whose idealized array cannot fit the die (even after clamping)
    are dropped with a warning via [Logs]. *)

val build_all_ordered :
  Dpp_netlist.Soa.t ->
  Dpp_netlist.Groups.t list ->
  cx:float array ->
  cy:float array ->
  t list
(** Like {!build_all}, but each group's axes are ordered by {e dataflow}:
    stage columns are chained greedily so that heavily connected stages end
    up in adjacent columns (and likewise slice rows, which puts carry
    chains on neighbouring rows), then each chain is oriented to correlate
    positively with the initial placement [cx]/[cy] so that, e.g., two
    groups joined by a bit-parallel bus keep compatible bit orders.
    Extracted groups carry stages in BFS-discovery order, which is
    arbitrary relative to the dataflow; without this reordering the
    alignment force fights the net forces instead of helping them. *)

val of_movable_macro : Dpp_netlist.Soa.t -> int -> t
(** A single-cell pseudo-group for a movable multi-row macro (an embedded
    RAM): the mixed-size flow places such cells through the same rigid
    machinery as datapath arrays.
    @raise Invalid_argument if the cell is fixed. *)

val movable_macros : Dpp_netlist.Soa.t -> int list
(** Movable cells taller than one row — the mixed-size population. *)

type regularity = {
  coupling : float;
      (** fraction of the group's pin incidences that lie on
          group-internal nets (a net with no pin outside the group).
          Bit-sliced datapaths score ~0.75+; structures dominated by
          boundary buses/ports (array multiplier operand rows/columns,
          tiny register files) score lower, and constraining those loses
          wirelength — the flow filters on this score, mirroring the
          paper's "regularity evaluation" step. *)
  slice_span : float;
      (** mean, over the group's internal nets, of the slice-index span
          (max - min slice) of the net's members.  Bit-sliced logic scores
          ~0-1 (slice-local cones and carries); butterfly-style structures
          (barrel shifters: bit i drives bit i +/- 2^l) score much higher,
          and a 2-D array placement is anti-optimal for them — the flow's
          regularity filter rejects groups above a span threshold. *)
}

val regularity : Dpp_netlist.Soa.t -> Dpp_netlist.Groups.t list -> regularity list
(** The regularity scores of every group, in list order, from one pass
    over the net -> pin -> cell CSR through a cell -> group index:
    O(pins + incidences), not O(groups x pins).  Groups may overlap; a cell listed in several
    slices of one group counts in its last.  Each group's float total is
    accumulated in net order, so the scores are bit-identical to scanning
    the nets once per group. *)

val origin_of_positions : t -> cx:float array -> cy:float array -> float * float
(** The least-squares optimal group origin for the current cell centers:
    the mean of [(center_i - offset_i)]. *)

val alignment_error : t -> cx:float array -> cy:float array -> float
(** Root-mean-square distance between members and their idealized slots at
    the optimal origin — the F3 "alignment error" metric. *)
