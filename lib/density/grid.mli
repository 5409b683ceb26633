(** Uniform bin grid over the die core, with per-bin free capacity
    (bin area minus fixed-cell overlap).  Shared by the bell-shaped
    potential and the exact overflow metric. *)

type t = {
  die : Dpp_geom.Rect.t;
  nx : int;
  ny : int;
  bin_w : float;
  bin_h : float;
  capacity : float array;  (** free area per bin, row-major [iy * nx + ix] *)
}

val of_soa :
  ?extra_obstacles:Dpp_geom.Rect.t list -> Dpp_netlist.Soa.t -> nx:int -> ny:int -> t
(** Capacity starts at bin area and is reduced by the overlap of every
    [Fixed] cell (pads are zero-area for density) and of every
    [extra_obstacles] rectangle (snapped datapath groups in the
    structure-aware flow's second phase). *)

val dims_of_soa : Dpp_netlist.Soa.t -> int * int
(** A square-ish grid with roughly one bin per ~4 movable cells, clamped
    to [8 .. 512] per side. *)

val build : Dpp_netlist.Design.t -> nx:int -> ny:int -> t
(** [of_soa (Soa.of_design d)], kept for [perfbench/]; library code
    calls {!of_soa}. *)

val default_dims : Dpp_netlist.Design.t -> int * int
(** [dims_of_soa (Soa.of_design d)], kept for [perfbench/]. *)

val index : t -> int -> int -> int
val bin_center_x : t -> int -> float
val bin_center_y : t -> int -> float
val bin_rect : t -> ix:int -> iy:int -> Dpp_geom.Rect.t

val ix_of_x : t -> float -> int
(** Bin column containing an x coordinate, clamped. *)

val range_of_interval : lo:float -> hi:float -> origin:float -> step:float -> n:int -> int * int
(** Clamped inclusive bin index range intersecting [lo, hi). *)

val total_capacity : t -> float
