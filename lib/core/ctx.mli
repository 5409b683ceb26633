(** The shared placement context threaded through the flow's stages.

    One [t] is allocated per {!Flow.run}, and {!create} is the one place
    the flow derives its netlist views: the flat {!Dpp_netlist.Soa} core
    (deduplicated cell/net adjacency included) and the pin view over it
    are built here once, and every stage reads them instead of deriving
    its own.  Besides the views the context holds only state that more
    than one stage — or the driver, the checkpoint oracles, the snapshot
    codec or the serve cache — reads: the live coordinates, the
    {!Dpp_wirelen.Netbox} incremental-cost cache from legalization on,
    the frozen-cell sets, obstacles, and each stage's product that a
    later stage or the result consumes.  Stages communicate exclusively
    by mutating the context. *)

type metrics = {
  steiner : float;  (** RSMT wirelength at the final placement *)
  congestion : Dpp_congest.Rudy.stats;  (** RUDY demand statistics *)
  critical_delay : float;  (** lite-STA critical path delay *)
}
(** The metrics stage's product. *)

type t = {
  design : Dpp_netlist.Design.t;
      (** the placed copy being optimized; read only by extract, the
          metrics stage's STA, the oracles and result assembly — the
          other stages take [soa]/[pins] *)
  config : Config.t;
  pool : Dpp_par.Pool.t;
      (** worker pool sized from [config.jobs], shared by every stage's
          cost kernels; {!Flow.run} shuts it down when the flow ends *)
  arena : Dpp_util.Arena.t;
      (** per-context scratch arena recycled by GP rounds, netbox
          rescans and RUDY evaluations; single-domain — each serve
          worker context owns its own *)
  soa : Dpp_netlist.Soa.t;
      (** the flat structure-of-arrays view of [design], derived once at
          context creation and authoritative for every hot kernel and
          every adjacency walk; its [x]/[y]/[orient] arrays alias the
          design's, so in-place mutation (flips) stays visible through
          both views *)
  pins : Dpp_wirelen.Pins.t;
      (** built once at context creation, over [soa]; the flip stage
          keeps its offsets consistent in place *)
  mutable cx : float array;  (** live cell centers — the current best placement *)
  mutable cy : float array;
  mutable netbox : Dpp_wirelen.Netbox.t option;
      (** incremental HPWL cache over [cx]/[cy]; [None] until first use,
          dropped by {!set_coords} *)
  mutable netbox_retired : Dpp_wirelen.Netbox.t option;
      (** last cache dropped by {!set_coords}, recycled as the storage
          donor of the next {!netbox} build *)
  mutable skip : int array;
      (** ids of the cells frozen by group snapping (or by ECO); a plain
          id set so checkpoint snapshots serialize it as is — stages
          query it through {!member} *)
  mutable flip_skip : int array;
      (** cells whose orientation must not change — empty in the full
          flow, the frozen clean set in incremental ECO re-placement *)
  mutable bound : Dpp_geom.Rect.t option;
      (** dirty-region rectangle for incremental ECO re-placement;
          [None] (the full flow) leaves legalization and detailed
          placement unconstrained *)
  mutable obstacles : Dpp_geom.Rect.t list;  (** snapped group/macro outlines *)
  mutable legal : Dpp_place.Legal.t option;
  mutable groups_used : Dpp_netlist.Groups.t list;
  mutable extraction : (Dpp_extract.Slicer.result * Dpp_extract.Exmetrics.t) option;
  mutable dgroups : Dpp_structure.Dgroup.t list;
      (** groups kept by the init stage's regularity filter; the gp stage
          splits them into rigid and soft by mode and footprint *)
  mutable macro_dgs : Dpp_structure.Dgroup.t list;
  mutable gp : Dpp_place.Gp.result option;
  mutable ml_levels : Dpp_coarsen.level list;
      (** the coarsening hierarchy the gp stage ran on ([[]] = flat GP);
          the first level's [fine] is [soa] itself.  Kept for the
          cluster-integrity oracle and the trace *)
  mutable gp_levels : Dpp_place.Gp.level_info list;
      (** per-level V-cycle solve records, ascending level order *)
  mutable metrics : metrics option;  (** [None] until the metrics stage ran *)
}

val create : Dpp_netlist.Design.t -> Config.t -> t
(** Derives the flat view and pin view and captures the design's
    current centers. *)

val member : int array -> int -> bool
(** [member ids] is the membership predicate of a cell-id set such as
    [skip] or [flip_skip].  Building it hashes the set, so a stage builds
    it once and queries it per cell. *)

val set_coords : t -> float array -> float array -> unit
(** Adopt new live coordinate arrays (e.g. a stage's output), dropping
    any netbox built over the old ones. *)

val netbox : t -> Dpp_wirelen.Netbox.t
(** The incremental cache over the current coordinates, built on first
    use after each {!set_coords}. *)

val hpwl : t -> float
(** Weighted HPWL at the current coordinates — O(1) off the netbox when
    one is live, a full rescan otherwise. *)
