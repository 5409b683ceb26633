(** The flat structure-of-arrays netlist core.

    Every hot kernel in the flow — smooth wirelength gradients, bell
    density, RUDY congestion, the incremental net-box cache, and the
    legalization/detail/flip occupancy scans — iterates over this view:
    one plain [float array] (or [int array]) per field, plus CSR
    adjacency for both directions of the cell/net/pin incidence.  The
    boxed {!Types.cell}/{!Types.net}/{!Types.pin} records stay the
    canonical {e construction and I/O} representation ({!Builder},
    {!Bookshelf}, {!Validate}, the oracles); a [Soa.t] is derived from a
    {!Design.t} once per flow and kept authoritative from then on.  The
    coarse netlists of multilevel placement exist only as [Soa.t]s.

    {2 Who takes a [Soa.t]}

    The place and structure layers (QP, legalization, detail, flip, the
    group builders, snapping) and multilevel GP take this view, or the
    pin view / netbox over it, as their only netlist: coarsening builds
    every coarse level as a [Soa.t] through {!make}, and GP, the density
    grid, the bell potential, overflow and RUDY read the flat core.
    Extraction and STA still take a {!Design.t}; a few [Design.t]
    adapters over the flat entry points remain only because the
    repository benchmark calls them.  The legality and checkpoint
    oracles read the records on purpose, independently of the view they
    audit.

    {2 Compact backing}

    CSR connectivity and per-pin metadata are stored in
    {!Dpp_util.Compact} Bigarrays — int32 for pin/cell/net indices (4
    bytes per slot instead of 8), int8 for [kind]/[pin_dir], unboxed
    float64 for pin offsets.  The payloads live outside the OCaml heap,
    so the GC never scans the netlist's bulk.  Index values are plain
    [int]s at every accessor; {!of_design} fails fast with [Failure]
    when a design's pin count exceeds the int32 range (see
    {!guard_pin_count}).

    {2 Handles and index conventions}

    A handle is a bare [int]: cell ids, net ids and pin ids are exactly
    the indices of {!Design.t}'s dense entity arrays.  CSR adjacency
    follows the usual two-array convention — for nets,
    [net_pin.(net_pin_off.(n) .. net_pin_off.(n+1) - 1)] are net [n]'s
    pin ids {e in the net's original pin order}, so kernels ported from
    the record path accumulate floats in the identical order and produce
    bit-identical results.  The cell-side CSR ([cell_pin_off]/[cell_pin])
    preserves each cell's pin-list order the same way.

    {2 Deduplicated adjacency}

    The same CSR layout carries the cell<->net graph with duplicates
    removed — the view extraction, QP, coarsening, snapping and detailed
    placement walk.  Ordering contract: [net_cell] lists each net's
    {e distinct} cells in ascending id order, and [cell_net] lists each
    cell's distinct nets in ascending id order (a cell with two pins on
    one net appears once).  Those orders are part of the interface:
    the quadratic system, heavy-edge matching and signature refinement
    accumulate over them, so their results depend on it bit for bit.
    The distinct counts are {!net_cell_degree}/{!cell_net_degree}; the
    pin counts stay {!net_degree}/{!cell_degree}.

    {2 Aliasing contract}

    [x], [y] and [orient] {e alias} the source design's mutable arrays:
    the flat view and the record view always agree on live placement
    state, and in-place updates (the flip stage's orientation writes,
    {!Dpp_wirelen.Pins.apply_centers}) are visible through both.  All
    other arrays are private copies; mutating them does not write back.
    {!to_design} deep-copies everything, so the round trip
    [to_design (of_design d)] is field-for-field equal to [d] while
    sharing no mutable state with it. *)

type t = {
  name : string;
  die : Dpp_geom.Rect.t;
  row_height : float;
  site_width : float;
  num_rows : int;
  num_cells : int;
  num_nets : int;
  num_pins : int;
  cell_name : string array;
  cell_master : string array;  (** interned: one shared block per distinct master *)
  width : float array;  (** unoriented cell width, indexed by cell id *)
  height : float array;
  kind : Dpp_util.Compact.I8.t;
      (** {!kind_movable} / {!kind_fixed} / {!kind_pad} *)
  x : float array;  (** lower-left x — aliases [Design.x] *)
  y : float array;  (** lower-left y — aliases [Design.y] *)
  orient : Dpp_geom.Orient.t array;  (** aliases [Design.orient] *)
  cell_pin_off : Dpp_util.Compact.I32.t;
      (** cell->pin CSR offsets, length [num_cells + 1] *)
  cell_pin : Dpp_util.Compact.I32.t;  (** pin ids, cell pin-list order preserved *)
  net_name : string array;  (** interned through the same pool as [cell_master] *)
  net_weight : float array;
  net_pin_off : Dpp_util.Compact.I32.t;
      (** net->pin CSR offsets, length [num_nets + 1] *)
  net_pin : Dpp_util.Compact.I32.t;  (** pin ids, net pin-array order preserved *)
  pin_cell : Dpp_util.Compact.I32.t;  (** owning cell id per pin *)
  pin_net : Dpp_util.Compact.I32.t;  (** net id per pin, [-1] when unconnected *)
  pin_dir : Dpp_util.Compact.I8.t;  (** {!code_of_dir} codes *)
  pin_dx : Dpp_util.Compact.F64.t;
      (** offset from the cell's lower-left corner, N orientation *)
  pin_dy : Dpp_util.Compact.F64.t;
  net_cell_off : Dpp_util.Compact.I32.t;
      (** net->distinct-cell CSR offsets, length [num_nets + 1] *)
  net_cell : Dpp_util.Compact.I32.t;  (** distinct cells per net, ascending *)
  cell_net_off : Dpp_util.Compact.I32.t;
      (** cell->distinct-net CSR offsets, length [num_cells + 1] *)
  cell_net : Dpp_util.Compact.I32.t;  (** distinct nets per cell, ascending *)
  groups : Groups.t list;
}

val make :
  name:string -> die:Dpp_geom.Rect.t -> row_height:float -> site_width:float -> num_rows:int ->
  cell_name:string array -> cell_master:string array -> width:float array ->
  height:float array -> kind:Dpp_util.Compact.I8.t ->
  x:float array -> y:float array -> orient:Dpp_geom.Orient.t array ->
  cell_pin_off:Dpp_util.Compact.I32.t -> cell_pin:Dpp_util.Compact.I32.t ->
  net_name:string array -> net_weight:float array ->
  net_pin_off:Dpp_util.Compact.I32.t -> net_pin:Dpp_util.Compact.I32.t ->
  pin_cell:Dpp_util.Compact.I32.t -> pin_net:Dpp_util.Compact.I32.t ->
  pin_dir:Dpp_util.Compact.I8.t -> pin_dx:Dpp_util.Compact.F64.t -> pin_dy:Dpp_util.Compact.F64.t ->
  groups:Groups.t list ->
  t
(** The one constructor: adopts the given arrays as the fields of the
    same name (none is copied), takes the counts from [width],
    [net_weight] and [cell_pin_off], and derives the deduplicated
    adjacency.  {!of_design} and the coarse levels of
    {!Dpp_coarsen} both build through it. *)

val csr :
  int ->
  len:(int -> int) ->
  fill:(int -> Dpp_util.Compact.I32.t -> int -> unit) ->
  Dpp_util.Compact.I32.t * Dpp_util.Compact.I32.t
(** [csr n ~len ~fill] is a CSR [(offsets, payload)] of [n] rows: row [i]
    holds [len i] ids, which [fill i payload off] writes from [off]. *)

val of_design : Design.t -> t
(** Derive the flat view, deduplicated adjacency included.
    O(cells + nets + pins); [x]/[y]/[orient] are aliased (see the module
    contract), everything else is copied. *)

val to_design : t -> Design.t
(** Rebuild a record-view design.  Exact field-for-field inverse of
    {!of_design} (entity ids are the array indices, as {!Builder}
    guarantees); coordinate arrays are fresh copies. *)

val guard_pin_count : name:string -> int -> unit
(** The int32 CSR overflow gate: raises [Failure] with a counted-pins
    message when the total pin count does not fit an int32 offset slot.
    {!of_design} routes every design through it. *)

val kind_movable : int
val kind_fixed : int
val kind_pad : int
val code_of_kind : Types.cell_kind -> int
val kind_of_code : int -> Types.cell_kind

val code_of_dir : Types.direction -> int
(** [Input] = 0, [Output] = 1, [Inout] = 2 — the [pin_dir] int8 codes. *)

val dir_of_code : int -> Types.direction

val is_fixed : t -> int -> bool
(** Fixed cells and pads are immovable. *)

val num_cells : t -> int
val num_nets : t -> int
val num_pins : t -> int

val net_degree : t -> int -> int
(** Pin count of a net. *)

val cell_degree : t -> int -> int
(** Pin count of a cell. *)

val max_net_degree : t -> int
(** Largest net pin count, at least 1 so degree-sized scratch buffers
    are never empty. *)

val net_cell_degree : t -> int -> int
(** Number of distinct cells on a net. *)

val cell_net_degree : t -> int -> int
(** Number of distinct nets touching a cell. *)

val iter_cells_of_net : t -> int -> (int -> unit) -> unit
(** Allocation-free walk of a net's distinct cells, ascending. *)

val iter_nets_of_cell : t -> int -> (int -> unit) -> unit
(** Allocation-free walk of a cell's distinct nets, ascending. *)

val cells_of_net : t -> int -> int array
(** Fresh array of a net's distinct cells, ascending. *)

val nets_of_cell : t -> int -> int array
(** Fresh array of a cell's distinct nets, ascending. *)

val neighbors_of_cell : t -> int -> max_net_degree:int -> int list
(** Distinct cells sharing a net with the given cell, ascending, nets
    with more than [max_net_degree] distinct cells skipped (they are
    control/clock-like and would make the neighborhood quadratic).
    Excludes the cell itself. *)

val oriented_dims : t -> int -> float * float
(** Width and height of cell [i] at its current orientation. *)

val cell_rect : t -> int -> Dpp_geom.Rect.t
(** Bounding box of cell [i] at its current position and orientation —
    same values as {!Design.cell_rect}. *)

(** The geometry of {!Design}'s namesakes, bit for bit: centers at the
    current orientation, the shared row arithmetic, ascending id lists
    (fixed cells and pads count as fixed). *)

val cell_center_x : t -> int -> float
val cell_center_y : t -> int -> float
val row_y : t -> int -> float
val row_of_y : t -> float -> int
val movable_ids : t -> int array
val fixed_ids : t -> int array

val fixed_obstacles : t -> Dpp_geom.Rect.t list
(** Fixed-cell footprints (pads excluded) clipped to the die, ascending
    id; the one obstacle list legalization, Abacus and snapping use. *)

val compact_bytes : t -> int
(** Total bytes of the off-heap compact payloads (CSR, adjacency and
    per-pin metadata), for memory-ledger reporting. *)
