(** Per-row occupancy index for the detailed-placement move pass.

    Each row's placed footprints (movable cells plus fixed pseudo-entries,
    [cell = -1]) are kept sorted by left edge in parallel arrays.
    {!best_gap} binary-searches to the target and expands outward with
    distance pruning; {!remove}/{!insert} splice in place.  This replaces
    the old per-row [(xl, xh, cell) list] that paid a full [List.filter]
    plus re-[List.sort] on every accepted move. *)

type t

val build : Dpp_netlist.Soa.t -> cx:float array -> cy:float array -> t
(** Index every movable cell (tall cells appear in each spanned row) and
    every fixed cell clipped to its rows; pads are ignored. *)

val num_rows : t -> int

val row_entries : t -> int -> (float * float * int) list
(** Sorted [(xl, xh, cell)] entries of one row — test/bench introspection. *)

val best_gap : t -> int -> w:float -> tx:float -> align:(float -> float) -> (float * float) option
(** [best_gap t r ~w ~tx ~align] is [Some (cost, cand_cx)] for the free
    gap of row [r] that admits a width-[w] cell with center nearest [tx]
    after [align] snaps the left edge to the site grid
    ([cost = |cand_cx - tx|]), or [None].  Read-only, so safe to call
    concurrently from worker domains; the scan order depends only on the
    index contents, never on the worker count. *)

val is_free : t -> int -> xl:float -> xh:float -> ignore:int -> bool
(** No entry other than [ignore] overlaps [\[xl, xh\]] by more than 1e-9
    in row [r].  Used by the serial commit phase to re-validate a gap a
    parallel evaluation proposed (an earlier commit may have taken it). *)

val remove : t -> row:int -> cell:int -> unit
(** Drop [cell]'s entry from [row] (no-op if absent). *)

val insert : t -> row:int -> cell:int -> xl:float -> xh:float -> unit
