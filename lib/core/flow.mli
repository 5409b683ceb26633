(** The end-to-end placement flow — the library's main entry point.

    {v
      validate -> [extract] -> QP init -> nonlinear GP (+ alignment)
               -> [group snap] -> Tetris + Abacus -> detailed placement
               -> flip -> metrics
    v}

    Bracketed stages run only in [Structure_aware] mode.  The input design
    is never modified; the result carries a placed copy.

    The flow is an explicit {!stage} list over one shared {!Ctx.t}.  The
    context derives the netlist views once ({!Dpp_netlist.Soa} with its
    deduplicated adjacency, and the pin view); each stage reads them and
    mutates the context's shared state (live coordinates, incremental
    {!Dpp_wirelen.Netbox} cost cache, frozen sets, stage products); init,
    snap, legal, detail and flip never read the design records.  The
    driver wraps every stage with timing and HPWL bookkeeping, reported
    through the [observer] hook and the result's [stage_trace]; the
    result's [hpwl_init]/[hpwl_legal] are read back from that trace. *)

exception Invalid_design of Dpp_netlist.Validate.issue list
(** Raised when validation reports errors. *)

exception Check_failed of { stage : string; violations : string list }
(** Raised in check mode when a stage boundary fails its {!Checkpoint}
    oracles.  [stage] is the stage that {e introduced} the violation —
    every earlier boundary was checked clean — so a corrupted cache or an
    illegal placement is attributed where it happened, not three stages
    later as a mysteriously worse HPWL. *)

type result = {
  design : Dpp_netlist.Design.t;  (** placed copy of the input *)
  config : Config.t;
  hpwl_init : float;  (** after quadratic init: the [init] stage record's [hpwl_after] *)
  hpwl_gp : float;
  hpwl_legal : float;  (** the [legal] stage record's [hpwl_after] *)
  hpwl_final : float;  (** after detailed placement and flipping *)
  steiner_final : float;
  congestion : Dpp_congest.Rudy.stats;  (** RUDY demand statistics at the final placement *)
  critical_delay : float;  (** lite-STA critical path delay at the final placement *)
  overflow_gp : float;
  align_error_final : float;  (** 0 when no groups are in play *)
  groups_used : Dpp_netlist.Groups.t list;  (** groups that steered placement *)
  extraction : (Dpp_extract.Slicer.result * Dpp_extract.Exmetrics.t) option;
      (** present when extraction ran; metrics compare against the design's
          ground-truth labels (empty truth yields trivial metrics) *)
  trace : Dpp_place.Gp.round_info list;
  rt_trace : Dpp_place.Gp.rt_round list;
      (** the GP routability-steering ledger (flat refinement in multilevel
          runs); [[]] unless [routability] was on and steering ran *)
  stage_trace : Dpp_report.Trace.stage list;
      (** one record per pipeline stage, flow order.  The gp record's
          [extra] says how GP ended: [gp_stop] (a
          {!Dpp_place.Gp.stop_reason_to_string} value), [gp_final_overflow]
          and [gp_overflow_target], plus [ml_bypassed: true] when
          multilevel was enabled but coarsening returned no level *)
  times : (string * float) list;  (** stage name -> seconds, flow order *)
  total_time : float;
}

type stage = { name : string; run : Ctx.t -> Ctx.t }
(** One pipeline step.  Stages communicate only through the context. *)

val stages : Config.t -> stage list
(** The stage list the driver executes for a given configuration (the
    extract stage is present only in [Structure_aware] mode). *)

val extract_stage : stage
(** The extraction stage on its own — the serve layer substitutes a
    cache-backed variant for it by name. *)

val run :
  ?observer:(Dpp_report.Trace.stage -> unit) ->
  ?check:bool ->
  Dpp_netlist.Design.t ->
  Config.t ->
  result
(** [observer] fires after each stage completes, with that stage's trace
    record (name, wall time, HPWL before/after, overflow when tracked).
    With [~check:true] the {!Checkpoint} oracles validate the context at
    every stage boundary (verdicts land in the trace records, including
    the one handed to [observer]) and the first violation raises
    {!Check_failed}. *)

val run_stages :
  ?prepare:(Ctx.t -> unit) ->
  ?observer:(Dpp_report.Trace.stage -> unit) ->
  ?check:bool ->
  stages:stage list ->
  Dpp_netlist.Design.t ->
  Config.t ->
  result
(** Like {!run} but over an explicit stage list — the hook the mutation
    tests and the fuzz harness use to splice fault-injection stages into
    the pipeline, and the one incremental ECO re-placement and checkpoint
    resume build on.  [prepare] runs right after context creation, before
    any stage — it may install coordinates, skip sets, obstacles, and the
    ECO [bound].  The list must end in a metrics stage for the result to
    be assembled.  Partial lists (incremental ECO, checkpoint resume)
    may lack init, gp or legal: a missing init or legal stage makes
    [hpwl_init]/[hpwl_legal] the HPWL the run started from (the first
    stage record's [hpwl_before]); without a gp stage [hpwl_gp] equals
    [hpwl_init], [overflow_gp] is 0 and the GP traces are empty. *)

val eco_stages : stage list
(** [legal; detail; flip; metrics] — the incremental ECO re-placement
    suffix.  Driven by the context's [bound], [skip], [flip_skip] and
    [obstacles] (see {!Eco}), all installed through [prepare]. *)

val resume_stages : stages:stage list -> after:string -> stage list
(** The suffix of [stages] strictly after the named stage — the stage
    list a checkpoint resume runs.
    @raise Invalid_argument if no stage has that name. *)

val trace_of_result : result -> Dpp_report.Trace.t
(** The result's stage trace bundled for {!Dpp_report.Trace.write}. *)

val run_both : ?check:bool -> Dpp_netlist.Design.t -> Config.t -> result * result
(** Baseline and structure-aware on the same design with otherwise equal
    settings — the Table 3 comparison.  The given config's [mode] is
    ignored. *)
