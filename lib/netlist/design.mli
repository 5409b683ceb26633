(** A placed (or placeable) design: netlist entities plus die geometry and
    the mutable coordinate state the placer works on.

    Coordinates [x.(i), y.(i)] are the {e lower-left corner} of cell [i].
    Pin absolute positions are derived through the cell orientation. *)

type t = {
  name : string;
  die : Dpp_geom.Rect.t;
  row_height : float;
  site_width : float;
  num_rows : int;
  cells : Types.cell array;
  nets : Types.net array;
  pins : Types.pin array;
  x : float array;  (** cell lower-left x, indexed by cell id *)
  y : float array;  (** cell lower-left y *)
  orient : Dpp_geom.Orient.t array;
  groups : Groups.t list;  (** ground-truth or extracted datapath groups *)
}

val num_cells : t -> int
val num_nets : t -> int
val num_pins : t -> int
val cell : t -> int -> Types.cell
val net : t -> int -> Types.net
val pin : t -> int -> Types.pin

val cell_rect : t -> int -> Dpp_geom.Rect.t
(** Bounding box of cell [i] at its current position and orientation. *)

val cell_center_x : t -> int -> float
val cell_center_y : t -> int -> float

val set_center : t -> int -> float -> float -> unit
(** Move cell [i] so its center lands at the given point. *)

val pin_position : t -> int -> float * float
(** Absolute position of pin [i] given its cell's placement. *)

val row_y_at : die:Dpp_geom.Rect.t -> row_height:float -> int -> float
val row_at : die:Dpp_geom.Rect.t -> row_height:float -> num_rows:int -> float -> int
(** The row arithmetic behind {!row_y}/{!row_of_y} and their {!Soa} twins. *)

val row_y : t -> int -> float
(** Lower edge of row [r]. *)

val row_of_y : t -> float -> int
(** Index of the row whose span contains [y], clamped to valid rows. *)

val movable_ids : t -> int array
(** Ids of all movable cells, ascending. *)

val fixed_ids : t -> int array

val movable_area : t -> float
val fixed_core_area : t -> float
(** Area of fixed cells (pads excluded) clipped to the die. *)

val utilization : t -> float
(** movable area / (die area - fixed core area). *)

val copy_positions : t -> float array * float array
val restore_positions : t -> float array -> float array -> unit

val with_groups : t -> Groups.t list -> t
(** Functional update of the group annotation list. *)

val average_net_degree : t -> float
