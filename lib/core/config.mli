(** Flow configuration — the one record a user tweaks.

    [Baseline] is the structure-oblivious analytical placer (standing in
    for NTUplace3); [Structure_aware] is the paper's flow: extraction,
    alignment forces in GP, group snapping, structure-preserving
    legalization and detailed placement. *)

type mode = Baseline | Structure_aware

type group_source =
  | Extracted  (** run the datapath extractor (the paper's flow) *)
  | Ground_truth  (** use the generator's labels (oracle ablation) *)

type structure_style =
  | Rigid_macros
      (** groups become single macro variables in GP (exact arrays by
          construction) — the primary mode *)
  | Soft_alignment
      (** groups get the quadratic alignment penalty weighted by [beta];
          the ablation mode (and what oversized groups fall back to) *)

type ml_mode =
  | Ml_auto  (** multilevel GP when the design has more than [ml_threshold] movables *)
  | Ml_on
  | Ml_off

type t = {
  mode : mode;
  group_source : group_source;
  structure : structure_style;
  model : Dpp_wirelen.Model.kind;
  target_density : float;
  beta : float;  (** alignment weight knob (dimensionless, 1.0 nominal) *)
  min_coupling : float;
      (** groups whose {!Dpp_structure.Dgroup.regularity} coupling falls
          below this are not constrained at all (default 0.7) *)
  max_slice_span : float;
      (** groups whose {!Dpp_structure.Dgroup.regularity} slice span
          exceeds this are not constrained (butterfly wiring; default
          1.5) *)
  gp_rounds : int;
  gp_inner_iters : int;
  overflow_target : float;
  detail_passes : int;
  extract : Dpp_extract.Slicer.config;
  seed : int;
  jobs : int;
      (** worker domains for the cost kernels (default 1).  The placement
          trajectory is independent of this value — see [Dpp_par.Pool]. *)
  multilevel : ml_mode;
      (** multilevel (coarsen → place → interpolate → refine) global
          placement; [Ml_auto] (the default) turns it on above
          [ml_threshold] movable cells *)
  ml_threshold : int;  (** [Ml_auto] cut-over, in movable cells (default 1500) *)
  ml_min_cells : int;
      (** coarsening stops once a level has at most this many movables
          (default 500) *)
  ml_max_levels : int;  (** maximum coarse levels (default 3) *)
  routability : bool;
      (** congestion-driven GP: RUDY feedback inflates cells in overflowed
          bins (virtual area in the density model) and adds a congestion
          penalty to the gradient — see {!Dpp_place.Gp.config}.  Off by
          default; deterministic at every [jobs] value. *)
  rt_interval : int;  (** GP rounds between congestion steering updates (default 3) *)
  rt_overflow : float;
      (** RUDY bin demand/supply ratio treated as congested (default 1.0) *)
  rt_max_inflate : float;
      (** total virtual-area budget as a fraction of movable area
          (default 0.15) *)
}

val baseline : t
(** LSE, density 0.9, 30 rounds x 60 iterations, overflow 0.08, 3 detail
    passes, seed 1. *)

val structure_aware : t
(** [baseline] with [mode = Structure_aware], [beta = 1.0], extracted
    groups. *)

val multilevel_enabled : t -> movables:int -> bool
(** Whether a design with that many movable cells runs the multilevel
    V-cycle under this configuration. *)

val with_mode : mode -> t -> t
val with_structure : structure_style -> t -> t
val with_beta : float -> t -> t
val with_model : Dpp_wirelen.Model.kind -> t -> t
val mode_to_string : mode -> string
