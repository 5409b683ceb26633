(** Datapath group annotation: a bit-sliced structure arranged as a logical
    2-D array.  Row [s] holds the cells of bit-slice [s]; column [k] holds
    the cells of pipeline/logic stage [k].  A slot may be a hole ([-1]) when
    a slice is missing one stage (e.g. the carry-out of the last bit).

    The same representation is used for generator ground truth and for
    extractor output, so precision/recall compares like with like. *)

type t = {
  g_name : string;
  g_rows : int array array;  (** [g_rows.(slice).(stage)] = cell id or [-1] *)
}

val make : string -> int array array -> t
(** @raise Invalid_argument if rows are empty or ragged. *)

val num_slices : t -> int
val num_stages : t -> int

val cell_ids : t -> int array
(** All member cell ids (holes skipped), in row-major order. *)

val cell_count : t -> int
(** Number of non-hole members. *)

val mem : t -> int -> bool
(** Membership test, O(size). *)

val member_set : t -> (int, unit) Hashtbl.t
(** Hash set of members for repeated queries. *)

val slice_of_cell : t -> int -> int option
(** Slice index containing a cell id, if any. *)

val stage_of_cell : t -> int -> int option

val transpose : t -> t
(** Swap the slice/stage axes. *)

val jaccard : t -> t -> float
(** Cell-set Jaccard similarity between two groups. *)

type index = {
  ix_ptr : int array;
      (** cell [c]'s entries are [ix_ptr.(c) .. ix_ptr.(c + 1) - 1]; the
          array covers cells [0 .. Array.length ix_ptr - 2], i.e. up to
          the largest member id *)
  ix_group : int array;  (** position of the group in the indexed list *)
  ix_slice : int array;  (** the cell's slice in that group (the last, if repeated) *)
  ix_size : int array;  (** distinct member count per group *)
}
(** Cell -> group incidence index (CSR), one entry per distinct
    (cell, group) pair, groups in list order within a cell. *)

val index : t list -> index
(** Builds the index in O(total slots + largest member id). *)

val pp : Format.formatter -> t -> unit
