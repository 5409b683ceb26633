(* One placement flow on a generated design, as a single measured sample:
   set-up, the flow, and the output checks.  The traced variant wraps
   every Flow.stages entry from outside and afterwards times the layers'
   public kernels at the final placement. *)

module Config = Dpp_core.Config
module Flow = Dpp_core.Flow
module Ctx = Dpp_core.Ctx
module Design = Dpp_netlist.Design
module Validate = Dpp_netlist.Validate
module Meminfo = Dpp_util.Meminfo
module Trace = Dpp_report.Trace

type target = {
  label : string;
  build : unit -> Design.t;
  config : Config.t;
  stages : Flow.stage list;  (** [Flow.stages config]; the tests splice in faults *)
}

(* the daemon's --fast schedule, structure-aware, one kernel worker per job *)
let serve_config ~seed =
  {
    Config.structure_aware with
    Config.jobs = 1;
    seed;
    gp_rounds = 6;
    gp_inner_iters = 15;
    detail_passes = 1;
  }

let preset ~seed name () =
  match Dpp_gen.Presets.by_name name with
  | Some spec -> Dpp_gen.Compose.build { spec with Dpp_gen.Compose.sp_seed = seed }
  | None -> invalid_arg ("unknown preset " ^ name)

let xl ~seed name () = Option.get (Dpp_gen.Xl.by_name ~seed name)

(* The flow each workload measures.  For serve_mix (serve_full) this is
   the traced ledger's stand-in for one served job: the largest preset of
   the mix under the served configuration.  [smoke] is the small design
   the benchmark's own tests run. *)
let target ~workload ~seed =
  let mk label build config = Some { label; build; config; stages = Flow.stages config } in
  let sa2 = { Config.structure_aware with Config.jobs = 2 } in
  match workload with
  | "xl_gp" -> mk "xl10k" (xl ~seed "xl10k") sa2
  | "xl_wide" ->
    mk "xl100k" (xl ~seed "xl100k") { sa2 with Config.gp_rounds = 2; gp_inner_iters = 5; detail_passes = 1 }
  | "serve_mix" -> mk "dp_shift32" (preset ~seed "dp_shift32") (serve_config ~seed)
  | "serve_full" -> mk "dp_mix_l" (preset ~seed "dp_mix_l") (serve_config ~seed)
  | "smoke" -> mk "dp_add32" (preset ~seed "dp_add32") (serve_config ~seed)
  | _ -> None

type sample = {
  setup_s : float list;  (** one entry per set-up repetition *)
  values : (string * float) list;
      (** flow_s, hpwl, gp_overflow, rudy_ace, peak_rss_mb; per-layer
          metrics when traced *)
  failures : string list;  (** empty when the placement passed every check *)
}

let now = Unix.gettimeofday
let setup_reps = 7

(* Build and validate the design [reps] times; keep the last copy. *)
let setup (t : target) ~reps =
  let times = ref [] and design = ref None in
  for _ = 1 to reps do
    design := None;
    let t0 = now () in
    let d = t.build () in
    let clean = Validate.is_clean (Validate.check d) in
    times := (now () -. t0) :: !times;
    if not clean then failwith (t.label ^ ": generated design does not validate");
    design := Some d
  done;
  (* hand the discarded copies back before the flow starts *)
  Gc.compact ();
  List.rev !times, Option.get !design

(* Median wall time of [f] over up to 7 calls, fewer once a second is
   spent; [prep] runs untimed before each call. *)
let time_med ?(prep = ignore) f =
  let rec go acc n spent =
    if n >= 7 || (n >= 1 && spent >= 1.0) then Metrics.median acc
    else begin
      prep ();
      let t0 = now () in
      f ();
      let dt = now () -. t0 in
      go (dt :: acc) (n + 1) (spent +. dt)
    end
  in
  go [] 0 0.0

type stage_cost = { wall : float; minor : float; major : float; hwm_kb : int }

(* Flow.stages with every entry wrapped from outside: wall time, GC word
   deltas and the VmHWM rise across the stage. *)
let wrapped_stages stages ledger last_ctx =
  List.map
    (fun (s : Flow.stage) ->
      {
        s with
        Flow.run =
          (fun ctx ->
            let g0 = Gc.quick_stat () and h0 = Meminfo.vm_hwm_kb () in
            let t0 = now () in
            let ctx = s.Flow.run ctx in
            let wall = now () -. t0 in
            let g1 = Gc.quick_stat () and h1 = Meminfo.vm_hwm_kb () in
            ledger :=
              ( s.Flow.name,
                {
                  wall;
                  minor = g1.Gc.minor_words -. g0.Gc.minor_words;
                  major = g1.Gc.major_words -. g0.Gc.major_words;
                  hwm_kb = h1 - h0;
                } )
              :: !ledger;
            last_ctx := Some ctx;
            ctx);
      })
    stages

let stage_trace (r : Flow.result) name =
  List.find_opt (fun (s : Trace.stage) -> s.Trace.name = name) r.Flow.stage_trace

(* Per-layer figures of one traced flow: the stage ledger, decisions read
   from the flow's public context, and direct kernel calls at the final
   placement. *)
let layers (t : target) ~input ~(result : Flow.result) ~ledger ~(ctx : Ctx.t) =
  let cfg = t.config in
  let cost name = List.assoc_opt name ledger in
  let wall name = match cost name with Some c -> c.wall | None -> 0.0 in
  let gp = cost "gp" in
  let minor = match gp with Some c -> c.minor /. 1e6 | None -> 0.0 in
  let major = match gp with Some c -> c.major /. 1e6 | None -> 0.0 in
  let level_s = List.fold_left (fun a (l : Dpp_place.Gp.level_info) -> a +. l.wall_s) 0.0 ctx.Ctx.gp_levels in
  let rounds =
    List.fold_left (fun a (l : Dpp_place.Gp.level_info) -> a + l.rounds_run) 0 ctx.Ctx.gp_levels
    + List.length result.Flow.trace
  in
  let coarsen_s =
    if ctx.Ctx.ml_levels = [] then 0.0
    else
      time_med (fun () ->
          ignore
            (Dpp_coarsen.build
               ~groups:(ctx.Ctx.dgroups @ ctx.Ctx.macro_dgs)
               ~min_cells:cfg.Config.ml_min_cells ~max_levels:cfg.Config.ml_max_levels
               ~seed:cfg.Config.seed ctx.Ctx.design))
  in
  let found, matched_rate, slicer_s, score_s =
    match result.Flow.extraction with
    | None -> 0, 0.0, 0.0, 0.0
    | Some (sr, em) ->
      let open Dpp_extract in
      let slicer_s = time_med (fun () -> ignore (Slicer.run input cfg.Config.extract)) in
      let score_s =
        time_med (fun () ->
            ignore (Exmetrics.compare_to_truth ~truth:input.Design.groups ~found:sr.Slicer.groups))
      in
      let rate =
        if em.Exmetrics.true_groups = 0 then 0.0
        else float em.Exmetrics.matched_groups /. float em.Exmetrics.true_groups
      in
      List.length sr.Slicer.groups, rate, slicer_s, score_s
  in
  let used = List.length ctx.Ctx.dgroups in
  let hpwl_change name =
    match stage_trace result name with
    | Some s when s.Trace.hpwl_before > 0.0 -> s.Trace.hpwl_after /. s.Trace.hpwl_before
    | _ -> 1.0
  in
  (* kernels at the final placement *)
  let d = result.Flow.design in
  let pins = Dpp_wirelen.Pins.build d in
  let cx, cy = Dpp_wirelen.Pins.centers_of_design d in
  let n = Design.num_cells d in
  let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
  let clear () =
    Array.fill gx 0 n 0.0;
    Array.fill gy 0 n 0.0
  in
  let nx, ny = Dpp_density.Grid.default_dims d in
  let grid = Dpp_density.Grid.build d ~nx ~ny in
  let gamma = 0.5 *. Dpp_geom.Rect.width d.Design.die /. float nx in
  let bell =
    Dpp_density.Bell.create ~soa:pins.Dpp_wirelen.Pins.soa d ~grid
      ~target_density:cfg.Config.target_density
  in
  let ms f = 1e3 *. time_med ~prep:clear f in
  [
    "gp.stage_s", wall "gp";
    "gp.minor_mwords", minor;
    "gp.major_mwords", major;
    "gp.rounds", float rounds;
    "gp.minor_mwords_per_round", (if rounds = 0 then 0.0 else minor /. float rounds);
    "gp.ml_levels", float (List.length ctx.Ctx.ml_levels);
    "gp.level_s", level_s;
    "gp.refine_s", Float.max 0.0 (wall "gp" -. level_s -. coarsen_s);
    "coarsen.build_s", coarsen_s;
    "wirelen.wa_grad_ms", ms (fun () -> ignore (Dpp_wirelen.Wa.value_grad pins ~gamma ~cx ~cy ~gx ~gy));
    "wirelen.lse_grad_ms", ms (fun () -> ignore (Dpp_wirelen.Lse.value_grad pins ~gamma ~cx ~cy ~gx ~gy));
    "wirelen.hpwl_ms", ms (fun () -> ignore (Dpp_wirelen.Hpwl.total pins ~cx ~cy));
    "wirelen.netbox_build_ms", ms (fun () -> ignore (Dpp_wirelen.Netbox.build pins ~cx ~cy));
    "density.bell_grad_ms", ms (fun () -> ignore (Dpp_density.Bell.value_grad bell ~cx ~cy ~gx ~gy));
    "congest.rudy_ms", ms (fun () -> ignore (Dpp_congest.Rudy.compute ~pins d ~cx ~cy));
    "extract.stage_s", wall "extract";
    "extract.slicer_s", slicer_s;
    "extract.score_s", score_s;
    "extract.groups_found", float found;
    "extract.group_match_rate", matched_rate;
    "structure.groups_used", float used;
    "structure.groups_dropped", float (found - used);
    "init.stage_s", wall "init";
    ("init.hwm_delta_mb", match cost "init" with Some c -> float c.hwm_kb /. 1024.0 | None -> 0.0);
    "netlist.soa_derive_s", time_med (fun () -> ignore (Dpp_netlist.Soa.of_design input));
    "netlist.validate_s", time_med (fun () -> ignore (Validate.check input));
    "snap.stage_s", wall "snap";
    "legal.stage_s", wall "legal";
    "legal.hpwl_ratio", hpwl_change "legal";
    "detail.stage_s", wall "detail";
    "detail.hpwl_gain_pct", 100.0 *. (1.0 -. hpwl_change "detail");
    "flip.stage_s", wall "flip";
    "metrics.stage_s", wall "metrics";
  ]

let run ?(traced = false) (t : target) =
  (* set-up time is an end-to-end figure: a traced sample sets up once *)
  let setup_s, input = setup t ~reps:(if traced then 1 else setup_reps) in
  let cfg = t.config in
  let ledger = ref [] and last_ctx = ref None in
  let t0 = now () in
  let stages = if traced then wrapped_stages t.stages ledger last_ctx else t.stages in
  let result = Flow.run_stages ~stages input cfg in
  let flow_s = now () -. t0 in
  let peak_rss_mb = float (Meminfo.vm_hwm_kb ()) /. 1024.0 in
  let layer_values =
    match !last_ctx with
    | Some ctx when traced -> layers t ~input ~result ~ledger:!ledger ~ctx
    | _ -> []
  in
  {
    setup_s;
    values =
      [
        "flow_s", flow_s;
        "hpwl", result.Flow.hpwl_final;
        "gp_overflow", result.Flow.overflow_gp;
        "rudy_ace", result.Flow.congestion.Dpp_congest.Rudy.ace_ratio;
        "peak_rss_mb", peak_rss_mb;
      ]
      @ layer_values;
    (* checked after everything timed *)
    failures = Checks.placed ~label:t.label result.Flow.design ~hpwl:result.Flow.hpwl_final;
  }

(* ----- the sample as one line of JSON, between processes ----- *)

let to_json s =
  let open Dpp_report.Json in
  let str = Printf.sprintf "\"%s\"" in
  Printf.sprintf "{\"setup_s\":[%s],\"failures\":[%s],\"values\":{%s}}"
    (String.concat "," (List.map (Printf.sprintf "%.17g") s.setup_s))
    (String.concat "," (List.map (fun f -> str (escape_string f)) s.failures))
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%s:%.17g" (str (escape_string k)) v) s.values))

let of_json line =
  let open Dpp_report.Json in
  let j = parse line in
  let get k = match member k j with Some v -> v | None -> raise (Parse_error ("missing " ^ k)) in
  {
    setup_s = List.map to_float (to_list (get "setup_s"));
    failures = List.map to_string (to_list (get "failures"));
    values =
      (match get "values" with
      | Obj kvs -> List.map (fun (k, v) -> k, to_float v) kvs
      | _ -> raise (Parse_error "values"));
  }
