(* End-to-end flow tests: both modes, legality, determinism, failure
   handling. *)

module Rect = Dpp_geom.Rect
module Types = Dpp_netlist.Types
module Builder = Dpp_netlist.Builder
module Design = Dpp_netlist.Design
module Pins = Dpp_wirelen.Pins
module Legality = Dpp_place.Legality
module Config = Dpp_core.Config
module Flow = Dpp_core.Flow
module Compose = Dpp_gen.Compose
module Trace = Dpp_report.Trace
module Json = Dpp_report.Json
module Gp = Dpp_place.Gp
module Ctx = Dpp_core.Ctx
module Soa = Dpp_netlist.Soa
module Snapshot = Dpp_core.Checkpoint.Snapshot

let flow_design () =
  Compose.build
    {
      Compose.sp_name = "fl";
      sp_seed = 91;
      sp_blocks = [ Compose.Adder 16; Regbank 16; Regbank 16 ];
      sp_random_cells = 300;
      sp_utilization = 0.7;
    }

let small_cfg = { Config.structure_aware with Config.gp_rounds = 10; gp_inner_iters = 30 }

let audit (r : Flow.result) =
  let cx, cy = Pins.centers_of_design r.Flow.design in
  Legality.check r.Flow.design ~cx ~cy

let test_flow_baseline_legal () =
  let d = flow_design () in
  let r = Flow.run d { small_cfg with Config.mode = Config.Baseline } in
  Alcotest.(check (list string)) "no violations" [] (List.map (fun _ -> "v") (audit r));
  Alcotest.(check bool) "final <= legal hpwl" true (r.Flow.hpwl_final <= r.Flow.hpwl_legal +. 1e-6);
  Alcotest.(check bool) "positive metrics" true
    (r.Flow.hpwl_final > 0.0 && r.Flow.steiner_final > 0.0);
  Alcotest.(check bool) "steiner >= hpwl" true (r.Flow.steiner_final >= r.Flow.hpwl_final -. 1e-6);
  Alcotest.(check bool) "no extraction in baseline" true (r.Flow.extraction = None)

let test_flow_structure_aware_legal () =
  let d = flow_design () in
  let r = Flow.run d small_cfg in
  Alcotest.(check (list string)) "no violations" [] (List.map (fun _ -> "v") (audit r));
  Alcotest.(check bool) "extraction ran" true (r.Flow.extraction <> None);
  Alcotest.(check bool) "groups used" true (r.Flow.groups_used <> []);
  (* snapped rigid arrays end perfectly aligned (covered by the structure
     suite); groups left soft on this deliberately short-GP config keep
     residual error, so here the metric only has to be well-formed *)
  Alcotest.(check bool) "alignment error well-formed" true
    (Float.is_finite r.Flow.align_error_final && r.Flow.align_error_final >= 0.0)

let test_flow_input_untouched () =
  let d = flow_design () in
  let x0 = Array.copy d.Design.x in
  ignore (Flow.run d small_cfg);
  Alcotest.(check bool) "input design unchanged" true (d.Design.x = x0)

let test_flow_deterministic () =
  let d = flow_design () in
  let r1 = Flow.run d small_cfg in
  let r2 = Flow.run d small_cfg in
  Alcotest.(check (float 1e-9)) "same hpwl" r1.Flow.hpwl_final r2.Flow.hpwl_final

let test_flow_ground_truth_source () =
  let d = flow_design () in
  let r = Flow.run d { small_cfg with Config.group_source = Config.Ground_truth } in
  Alcotest.(check bool) "no extraction with truth source" true (r.Flow.extraction = None);
  Alcotest.(check bool) "groups from labels" true (r.Flow.groups_used <> [])

let test_flow_soft_mode () =
  let d = flow_design () in
  let r = Flow.run d (Config.with_structure Config.Soft_alignment small_cfg) in
  Alcotest.(check (list string)) "soft mode legal" [] (List.map (fun _ -> "v") (audit r))

let test_flow_invalid_design_raises () =
  (* overfull die must be rejected before placement *)
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:10.0 ~yh:10.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  for k = 0 to 9 do
    ignore
      (Builder.add_cell b ~name:(Printf.sprintf "c%d" k) ~master:"X" ~w:2.0 ~h:10.0
         ~kind:Types.Movable)
  done;
  let d = Builder.finish b in
  Alcotest.(check bool) "Invalid_design raised" true
    (try
       ignore (Flow.run d small_cfg);
       false
     with Flow.Invalid_design _ -> true)

let test_flow_times_recorded () =
  let d = flow_design () in
  let r = Flow.run d small_cfg in
  let stage s = List.mem_assoc s r.Flow.times in
  Alcotest.(check bool) "stages timed" true
    (stage "extract" && stage "init" && stage "gp" && stage "legal" && stage "detail");
  Alcotest.(check bool) "total covers stages" true
    (r.Flow.total_time >= List.fold_left (fun acc (_, t) -> acc +. t) 0.0 r.Flow.times -. 1e-6)

let test_flow_run_both_modes_differ () =
  let d = flow_design () in
  let base, sa = Flow.run_both d small_cfg in
  Alcotest.(check bool) "modes recorded" true
    (base.Flow.config.Config.mode = Config.Baseline
    && sa.Flow.config.Config.mode = Config.Structure_aware)

let test_flow_no_groups_ties_baseline () =
  (* a design where extraction finds nothing: both flows must coincide *)
  let d =
    Compose.build
      {
        Compose.sp_name = "tie";
        sp_seed = 92;
        sp_blocks = [ Compose.Adder 4 ];
        sp_random_cells = 400;
        sp_utilization = 0.7;
      }
  in
  let base, sa = Flow.run_both d small_cfg in
  if sa.Flow.groups_used = [] then
    Alcotest.(check (float 1e-6)) "identical when no groups" base.Flow.hpwl_final
      sa.Flow.hpwl_final
  else
    (* extraction found the tiny adder: results may differ but must be sane *)
    Alcotest.(check bool) "sane ratio" true
      (sa.Flow.hpwl_final /. base.Flow.hpwl_final < 1.3)

let stage_record (r : Flow.result) name =
  List.find (fun (s : Trace.stage) -> s.Trace.name = name) r.Flow.stage_trace

let test_flow_hpwls_from_trace () =
  let r = Flow.run (flow_design ()) small_cfg in
  Alcotest.(check bool) "hpwl_init is the init record's" true
    (r.Flow.hpwl_init = (stage_record r "init").Trace.hpwl_after);
  Alcotest.(check bool) "hpwl_legal is the legal record's" true
    (r.Flow.hpwl_legal = (stage_record r "legal").Trace.hpwl_after)

let test_flow_resume_after_legal () =
  (* a flow resumed from a checkpoint taken after legal reports the
     placement it started from, not zeros *)
  let d = flow_design () in
  let snap = ref None in
  let capture (s : Flow.stage) =
    if s.Flow.name <> "legal" then s
    else
      {
        s with
        Flow.run =
          (fun ctx ->
            let ctx = s.Flow.run ctx in
            snap := Some (Snapshot.capture ~stage:"legal" ctx);
            ctx);
      }
  in
  let stages = Flow.stages small_cfg in
  let full = Flow.run_stages ~stages:(List.map capture stages) d small_cfg in
  let resumed =
    Flow.run_stages
      ~prepare:(Snapshot.restore (Option.get !snap))
      ~stages:(Flow.resume_stages ~stages ~after:"legal")
      d small_cfg
  in
  let start = (List.hd resumed.Flow.stage_trace).Trace.hpwl_before in
  Alcotest.(check bool) "hpwl_legal bit-equal to the full run's" true
    (resumed.Flow.hpwl_legal = full.Flow.hpwl_legal);
  Alcotest.(check bool) "hpwl_init/gp are the starting HPWL" true
    (start > 0.0 && resumed.Flow.hpwl_init = start && resumed.Flow.hpwl_gp = start);
  Alcotest.(check bool) "hpwl_final bit-equal to the full run's" true
    (resumed.Flow.hpwl_final = full.Flow.hpwl_final)

(* a spool file is outside input: restore names the field it rejects,
   and installs nothing *)
let test_restore_rejects_bad_spool () =
  let d = flow_design () in
  let n = Design.num_cells d in
  let good = Snapshot.capture ~stage:"legal" (Dpp_core.Ctx.create d small_cfg) in
  Snapshot.restore (Snapshot.decode (Snapshot.encode good)) (Dpp_core.Ctx.create d small_cfg);
  let rejects name field (bad : Snapshot.t) =
    let ctx = Dpp_core.Ctx.create d small_cfg in
    match Snapshot.restore (Snapshot.decode (Snapshot.encode bad)) ctx with
    | () -> Alcotest.failf "%s: restored" name
    | exception Invalid_argument msg ->
      if not (String.starts_with ~prefix:("Snapshot.restore: " ^ field ^ " ") msg) then
        Alcotest.failf "%s: %S does not name %s" name msg field;
      Alcotest.(check bool) (name ^ ": nothing installed") true (ctx.Dpp_core.Ctx.skip = [||])
  in
  rejects "truncated cy" "cy" { good with Snapshot.cy = Array.sub good.Snapshot.cy 0 (n - 1) };
  rejects "renamed design" "design" { good with Snapshot.design = good.Snapshot.design ^ "_b" };
  rejects "skip id out of range" "skip_ids" { good with Snapshot.skip_ids = [| 0; n |] };
  rejects "negative flip-skip id" "flip_skip_ids" { good with Snapshot.flip_skip_ids = [| -1 |] };
  rejects "failed id out of range" "failed" { good with Snapshot.failed = [ n + 3 ] };
  rejects "short assignment" "assignment" { good with Snapshot.assignment = [| 0 |] }

(* ----- placement digests -----

   The hex digest of the .pl file of three small placements: the
   structure-aware flow, multilevel GP and routability steering.  The
   constants were recorded by running this test on the code before the
   flow's place and structure layers moved onto the flat netlist view,
   so a change of placement by any refactor shows here, in
   [dune runtest].  A change that moves placement on purpose updates the
   constants and says so in CHANGES.md. *)

let short_gp cfg = { cfg with Config.gp_rounds = 10; gp_inner_iters = 30 }

let pl_digest (d : Design.t) =
  let dir = Filename.temp_file "dpp_digest" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let base = Filename.concat dir "placed" in
  Dpp_netlist.Bookshelf.write d ~basename:base;
  let hex = Digest.to_hex (Digest.file (base ^ ".pl")) in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  hex

let preset name = Compose.build (Option.get (Dpp_gen.Presets.by_name name))

let test_placement_digests () =
  let cases =
    [
      ( "dp_add32 structure-aware",
        preset "dp_add32",
        short_gp Config.structure_aware,
        "c729dd56e3dd24d7514849a897d0702c" );
      ( "dp_mix_s multilevel",
        preset "dp_mix_s",
        short_gp { Config.structure_aware with Config.multilevel = Config.Ml_on },
        "c1f407cbdbbd8752d0ba6d6edb00dffd" );
      ( "rt_channel baseline routability",
        Dpp_gen.Channel.build (),
        short_gp { Config.baseline with Config.multilevel = Config.Ml_off; routability = true },
        "c98f2a50eafc122dbf9c5af2407d22b4" );
    ]
  in
  Alcotest.(check (list (pair string string)))
    "placed .pl digests"
    (List.map (fun (name, _, _, expected) -> name, expected) cases)
    (List.map (fun (name, d, cfg, _) -> name, pl_digest (Flow.run d cfg).Flow.design) cases)

(* Run the full flow and keep its context, captured before the first
   stage. *)
let run_with_ctx d cfg =
  let ctx = ref None in
  let r = Flow.run_stages ~prepare:(fun c -> ctx := Some c) ~stages:(Flow.stages cfg) d cfg in
  r, Option.get !ctx

(* A three-level V-cycle whose first level collapses datapath groups: the
   constant was recorded by running this case on the code that still built
   every coarse level as design records. *)
let test_deep_hierarchy_digest () =
  let cfg =
    short_gp { Config.structure_aware with Config.multilevel = Config.Ml_on; ml_min_cells = 150 }
  in
  let r, ctx = run_with_ctx (preset "dp_mix_s") cfg in
  let levels = ctx.Ctx.ml_levels in
  Alcotest.(check bool)
    (Printf.sprintf "at least two levels (%d)" (List.length levels))
    true
    (List.length levels >= 2);
  Alcotest.(check bool) "at least one group cluster" true
    (List.exists (fun (l : Dpp_coarsen.level) -> l.Dpp_coarsen.group_of <> []) levels);
  Alcotest.(check string) "placed .pl digest" "0deeaf36bd44eb24ee8c320913e3b481"
    (pl_digest r.Flow.design)

let test_level0_is_ctx_soa () =
  let cfg = short_gp { Config.baseline with Config.multilevel = Config.Ml_on } in
  let _, ctx = run_with_ctx (preset "dp_mix_s") cfg in
  match ctx.Ctx.ml_levels with
  | [] -> Alcotest.fail "multilevel built no level"
  | l0 :: _ ->
    Alcotest.(check bool) "level 0 fine is the context's view" true
      (l0.Dpp_coarsen.fine == ctx.Ctx.soa)

(* ----- GP stop reasons -----

   Each traced stop reason must agree with the run's own round series
   ([Flow.result.trace], the final GP solve's rounds). *)

let gp_extra (r : Flow.result) key =
  let gp = List.find (fun (s : Trace.stage) -> s.Trace.name = "gp") r.Flow.stage_trace in
  List.assoc_opt key gp.Trace.extra

let check_stop (r : Flow.result) (cfg : Config.t) expected =
  let rounds = r.Flow.trace in
  let overflows = List.map (fun (ri : Gp.round_info) -> ri.Gp.overflow) rounds in
  let last = List.nth overflows (List.length overflows - 1) in
  let target = cfg.Config.overflow_target in
  Alcotest.(check (option string)) "traced stop reason"
    (Some (Gp.stop_reason_to_string expected))
    (match gp_extra r "gp_stop" with Some (Json.Str s) -> Some s | _ -> None);
  Alcotest.(check (option (float 0.0))) "traced target" (Some target)
    (match gp_extra r "gp_overflow_target" with Some (Json.Num v) -> Some v | _ -> None);
  Alcotest.(check (option (float 0.0))) "traced final overflow" (Some r.Flow.overflow_gp)
    (match gp_extra r "gp_final_overflow" with Some (Json.Num v) -> Some v | _ -> None);
  match expected with
  | Gp.Target_reached ->
    Alcotest.(check bool) (Printf.sprintf "last round %.4f <= target" last) true (last <= target)
  | Gp.Stalled ->
    Alcotest.(check bool) (Printf.sprintf "last round %.4f > target" last) true (last > target);
    (* the last four rounds each kept more than 98% of the previous one *)
    let n = List.length overflows in
    Alcotest.(check bool) "at least five rounds" true (n >= 5);
    List.iteri
      (fun i ov ->
        if i >= n - 4 then
          Alcotest.(check bool)
            (Printf.sprintf "round %d stagnant" (i + 1))
            true
            (ov > 0.98 *. List.nth overflows (i - 1)))
      overflows
  | Gp.Round_cap ->
    Alcotest.(check bool) (Printf.sprintf "last round %.4f > target" last) true (last > target)

let test_gp_stop_reasons () =
  let base = Config.baseline in
  let r = Flow.run (preset "rand_ctrl") base in
  check_stop r base Gp.Target_reached;
  let r = Flow.run (preset "dp_add32") base in
  check_stop r base Gp.Stalled;
  let capped = { base with Config.multilevel = Config.Ml_off; gp_rounds = 2 } in
  let r = Flow.run (preset "dp_add32") capped in
  check_stop r capped Gp.Round_cap;
  Alcotest.(check int) "round cap ran every round" 2 (List.length r.Flow.trace);
  Alcotest.(check bool) "flat run records no bypass" true (gp_extra r "ml_bypassed" = None)

let test_ml_bypass_traced () =
  (* PEKO nets are cell-disjoint, so coarsening falls back to flat GP *)
  let pk, _ = Dpp_gen.Peko.build ~name:"peko_bypass" ~cells:2000 () in
  let cfg = short_gp { Config.baseline with Config.multilevel = Config.Ml_on } in
  let r, ctx = run_with_ctx pk cfg in
  Alcotest.(check int) "no levels" 0 (List.length ctx.Ctx.ml_levels);
  Alcotest.(check bool) "bypass traced" true (gp_extra r "ml_bypassed" = Some (Json.Bool true))

let suite =
  [
    Alcotest.test_case "baseline legal" `Slow test_flow_baseline_legal;
    Alcotest.test_case "structure-aware legal" `Slow test_flow_structure_aware_legal;
    Alcotest.test_case "input untouched" `Slow test_flow_input_untouched;
    Alcotest.test_case "deterministic" `Slow test_flow_deterministic;
    Alcotest.test_case "ground-truth source" `Slow test_flow_ground_truth_source;
    Alcotest.test_case "soft mode" `Slow test_flow_soft_mode;
    Alcotest.test_case "invalid design" `Quick test_flow_invalid_design_raises;
    Alcotest.test_case "times recorded" `Slow test_flow_times_recorded;
    Alcotest.test_case "run_both" `Slow test_flow_run_both_modes_differ;
    Alcotest.test_case "no-group tie" `Slow test_flow_no_groups_ties_baseline;
    Alcotest.test_case "hpwls from stage trace" `Slow test_flow_hpwls_from_trace;
    Alcotest.test_case "resume after legal" `Slow test_flow_resume_after_legal;
    Alcotest.test_case "restore rejects bad spool" `Quick test_restore_rejects_bad_spool;
    Alcotest.test_case "placement digests" `Slow test_placement_digests;
    Alcotest.test_case "placement digest deep hierarchy" `Slow test_deep_hierarchy_digest;
    Alcotest.test_case "level 0 is the context view" `Slow test_level0_is_ctx_soa;
    Alcotest.test_case "gp stop reasons" `Slow test_gp_stop_reasons;
    Alcotest.test_case "ml bypass traced" `Slow test_ml_bypass_traced;
  ]
