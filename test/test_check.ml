(* Tests for Dpp_check (placement oracles), the per-stage Checkpoint wiring
   in the flow, and the legalizer idempotence property the oracles certify. *)

module Rect = Dpp_geom.Rect
module Types = Dpp_netlist.Types
module Builder = Dpp_netlist.Builder
module Design = Dpp_netlist.Design
module Pins = Dpp_wirelen.Pins
module Netbox = Dpp_wirelen.Netbox
module Model = Dpp_wirelen.Model
module Legal = Dpp_place.Legal
module Abacus = Dpp_place.Abacus
module Config = Dpp_core.Config
module Ctx = Dpp_core.Ctx
module Flow = Dpp_core.Flow
module Fuzz = Dpp_core.Fuzz
module Compose = Dpp_gen.Compose
module Trace = Dpp_report.Trace
module Json = Dpp_report.Json
module Check = Dpp_check

let check_design () =
  Compose.build
    {
      Compose.sp_name = "ck";
      sp_seed = 17;
      sp_blocks = [ Compose.Adder 8; Regbank 8 ];
      sp_random_cells = 150;
      sp_utilization = 0.7;
    }

let small_cfg =
  { Config.structure_aware with Config.gp_rounds = 6; gp_inner_iters = 20; detail_passes = 2 }

let baseline_cfg = { small_cfg with Config.mode = Config.Baseline }

(* one baseline run shared by the oracle and idempotence tests *)
let placed = lazy (Flow.run (check_design ()) baseline_cfg)

let final_coords (r : Flow.result) = Pins.centers_of_design r.Flow.design

let violation_strings vs = Check.Violation.strings vs

(* ----- legality oracle ----- *)

let test_legal_clean () =
  let r = Lazy.force placed in
  let cx, cy = final_coords r in
  Alcotest.(check (list string)) "flow output passes the legal oracle" []
    (violation_strings (Check.legal r.Flow.design ~cx ~cy))

let two_movables d =
  let ids = Design.movable_ids d in
  let narrow =
    Array.to_list ids
    |> List.filter (fun i -> (Design.cell d i).Types.c_height <= d.Design.row_height +. 1e-9)
  in
  match narrow with a :: b :: _ -> (a, b) | _ -> Alcotest.fail "need two movable cells"

let test_legal_detects_injected_overlap () =
  let r = Lazy.force placed in
  let d = r.Flow.design in
  let cx, cy = final_coords r in
  let a, b = two_movables d in
  cx.(a) <- cx.(b);
  cy.(a) <- cy.(b);
  let vs = Check.overlap_bounds d ~cx ~cy in
  Alcotest.(check bool) "overlap reported" true (vs <> []);
  let rendered = String.concat "\n" (violation_strings vs) in
  let name i = (Design.cell d i).Types.c_name in
  let mentions n = Tutil.contains ~sub:n rendered in
  Alcotest.(check bool)
    (Printf.sprintf "report names the cells (%s, %s)" (name a) (name b))
    true
    (mentions (name a) && mentions (name b))

let test_finite_detects_nan () =
  let r = Lazy.force placed in
  let d = r.Flow.design in
  let cx, cy = final_coords r in
  let a, _ = two_movables d in
  cx.(a) <- Float.nan;
  Alcotest.(check bool) "NaN reported" true (Check.finite d ~cx ~cy <> [])

(* ----- legalizer idempotence (satellite): re-legalizing an already-legal
   placement must change nothing and stay clean under the oracle ----- *)

let test_legalizer_idempotent () =
  let r = Lazy.force placed in
  let d = r.Flow.design in
  let cx, cy = final_coords r in
  let soa = Dpp_netlist.Soa.of_design d in
  let legal = Legal.run soa ~cx ~cy () in
  Alcotest.(check (list string)) "no cell failed to fit" []
    (List.map string_of_int legal.Legal.failed);
  Abacus.run soa ~target_cx:cx ~legal ();
  let drift = ref 0.0 in
  Array.iter
    (fun i ->
      drift := max !drift (abs_float (legal.Legal.cx.(i) -. cx.(i)));
      drift := max !drift (abs_float (legal.Legal.cy.(i) -. cy.(i))))
    (Design.movable_ids d);
  Alcotest.(check bool)
    (Printf.sprintf "max displacement %.3g under 1e-6" !drift)
    true (!drift <= 1e-6);
  Alcotest.(check (list string)) "re-legalized placement passes the oracle" []
    (violation_strings (Check.legal d ~cx:legal.Legal.cx ~cy:legal.Legal.cy))

(* ----- netbox consistency oracle ----- *)

let test_netbox_sync_clean_and_corrupted () =
  let d = Fuzz.random_design ~seed:5 ~cells:60 ~nets:20 in
  let pins = Pins.build d in
  let cx, cy = Pins.centers_of_design d in
  let nb = Netbox.build pins ~cx ~cy in
  Alcotest.(check (list string)) "fresh cache is in sync" []
    (violation_strings (Check.netbox_sync nb));
  (* a direct coordinate write bypasses the cache's bookkeeping — exactly
     the corruption the oracle exists to catch *)
  let victim = (Design.movable_ids d).(0) in
  cx.(victim) <- cx.(victim) +. 7.0;
  let vs = Check.netbox_sync nb in
  Alcotest.(check bool) "stale cache reported" true (vs <> [])

(* ----- gradient oracle ----- *)

let test_gradient_oracle () =
  let d = Fuzz.random_design ~seed:11 ~cells:40 ~nets:15 in
  let gamma = max 1.0 (0.02 *. Rect.width d.Design.die) in
  List.iter
    (fun model ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s gradient matches finite differences" (Model.kind_to_string model))
        []
        (violation_strings (Check.gradient ~samples:5 ~seed:3 ~model ~gamma d)))
    [ Model.Lse; Model.Wa ]

(* ----- validation oracle carries names, not indices ----- *)

let test_validate_oracle_names () =
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:100.0 ~yh:100.0 in
  let b = Builder.create ~name:"badgrp" ~die ~row_height:10.0 ~site_width:1.0 () in
  let add name kind =
    Builder.add_cell b ~name ~master:"X" ~w:4.0 ~h:10.0 ~kind
  in
  let c0 = add "alpha" Types.Fixed and c1 = add "beta" Types.Movable in
  let p0 = Builder.add_pin b ~cell:c0 ~dir:Types.Output ()
  and p1 = Builder.add_pin b ~cell:c1 ~dir:Types.Input () in
  ignore (Builder.add_net b [ p0; p1 ]);
  (* a group may not contain a fixed cell — the classic labeling mistake *)
  Builder.add_group b (Dpp_netlist.Groups.make "g0" [| [| c0; c1 |] |]);
  let d = Builder.finish b in
  let vs = Check.validate d in
  Alcotest.(check bool) "fixed cell in a group is an error" true (vs <> []);
  let rendered = String.concat "\n" (violation_strings vs) in
  Alcotest.(check bool) "report names the cell (alpha), not an index" true
    (Tutil.contains ~sub:"alpha" rendered);
  Alcotest.(check bool) "report names the group" true (Tutil.contains ~sub:"group g0" rendered)

(* ----- bookshelf round-trip oracle ----- *)

let test_bookshelf_oracle_clean () =
  Alcotest.(check (list string)) "generated design round-trips" []
    (violation_strings (Check.bookshelf_roundtrip (check_design ())))

(* ----- flow --check wiring ----- *)

let test_flow_check_clean_both_modes () =
  let d = check_design () in
  let base, sa = Flow.run_both ~check:true d small_cfg in
  List.iter
    (fun (r : Flow.result) ->
      List.iter
        (fun (s : Trace.stage) ->
          match s.Trace.check with
          | None -> Alcotest.failf "stage %s has no check verdict" s.Trace.name
          | Some c ->
            Alcotest.(check bool)
              (Printf.sprintf "stage %s checked clean" s.Trace.name)
              true c.Trace.ok;
            Alcotest.(check bool)
              (Printf.sprintf "stage %s ran oracles" s.Trace.name)
              true (c.Trace.oracles <> []))
        r.Flow.stage_trace)
    [ base; sa ]

(* The acceptance criterion: an intentionally injected Netbox corruption is
   caught by check mode and attributed to the offending stage — not to a
   later one. *)
let test_mutation_caught_and_attributed () =
  let d = check_design () in
  let corrupt =
    {
      Flow.name = "corrupt";
      run =
        (fun ctx ->
          (* force the cache live, then poke a coordinate behind its back *)
          ignore (Ctx.netbox ctx);
          let victim = (Design.movable_ids ctx.Ctx.design).(0) in
          ctx.Ctx.cx.(victim) <- ctx.Ctx.cx.(victim) +. 7.0;
          ctx);
    }
  in
  let stages =
    Flow.stages baseline_cfg
    |> List.concat_map (fun s -> if s.Flow.name = "detail" then [ s; corrupt ] else [ s ])
  in
  match Flow.run_stages ~check:true ~stages d baseline_cfg with
  | _ -> Alcotest.fail "corruption went undetected"
  | exception Flow.Check_failed { stage; violations } ->
    Alcotest.(check string) "attributed to the injected stage" "corrupt" stage;
    Alcotest.(check bool) "netbox oracle fired" true
      (List.exists (String.starts_with ~prefix:"netbox") violations)

(* Without the netbox forced live the same poke is still caught, by the
   legality oracle (the +7.0 shift is off the site grid / overlapping). *)
let test_mutation_uncached_still_caught () =
  let d = check_design () in
  let corrupt =
    {
      Flow.name = "corrupt";
      run =
        (fun ctx ->
          let victim = (Design.movable_ids ctx.Ctx.design).(0) in
          ctx.Ctx.cx.(victim) <- ctx.Ctx.cx.(victim) +. 7.3;
          ctx);
    }
  in
  let stages =
    Flow.stages baseline_cfg
    |> List.concat_map (fun s -> if s.Flow.name = "flip" then [ s; corrupt ] else [ s ])
  in
  match Flow.run_stages ~check:true ~stages d baseline_cfg with
  | _ -> Alcotest.fail "corruption went undetected"
  | exception Flow.Check_failed { stage; _ } ->
    Alcotest.(check string) "attributed to the injected stage" "corrupt" stage

(* ----- stage-trace schema golden test (satellite) ----- *)

let test_trace_schema () =
  let d = check_design () in
  let r = Flow.run ~check:true d baseline_cfg in
  let json = Json.parse (Trace.to_json (Flow.trace_of_result r)) in
  let str path v = match Json.member path v with
    | Some s -> Json.to_string s
    | None -> Alcotest.failf "missing %S field" path
  in
  Alcotest.(check string) "design name" "ck" (str "design" json);
  Alcotest.(check string) "mode" "baseline" (str "mode" json);
  let stages =
    match Json.member "stages" json with
    | Some s -> Json.to_list s
    | None -> Alcotest.fail "missing stages array"
  in
  Alcotest.(check int) "one record per stage" (List.length r.Flow.stage_trace)
    (List.length stages);
  let expected_names = List.map (fun (s : Flow.stage) -> s.Flow.name) (Flow.stages baseline_cfg) in
  Alcotest.(check (list string)) "stage names in flow order" expected_names
    (List.map (str "name") stages);
  let last_t = ref 0.0 in
  List.iter
    (fun s ->
      let num path = match Json.member path s with
        | Some v -> Json.to_float v
        | None -> Alcotest.failf "missing %S field" path
      in
      let wall = num "wall_s" and t_s = num "t_s" in
      Alcotest.(check bool) "wall_s non-negative" true (wall >= 0.0);
      Alcotest.(check bool) "timestamps monotone" true (t_s >= !last_t);
      last_t := t_s;
      ignore (num "hpwl_before");
      ignore (num "hpwl_after");
      (match Json.member "overflow" s with
      | Some (Json.Null | Json.Num _) -> ()
      | _ -> Alcotest.fail "overflow must be null or a number");
      match Json.member "check" s with
      | Some (Json.Obj _ as c) ->
        Alcotest.(check bool) "check verdict ok" true
          (match Json.member "ok" c with Some b -> Json.to_bool b | None -> false);
        ignore (Json.to_list (Option.get (Json.member "oracles" c)));
        ignore (Json.to_list (Option.get (Json.member "violations" c)))
      | _ -> Alcotest.fail "check verdict missing from a --check run")
    stages

let test_trace_check_null_without_check () =
  let d = check_design () in
  let r = Flow.run d baseline_cfg in
  let json = Json.parse (Trace.to_json (Flow.trace_of_result r)) in
  let stages = Json.to_list (Option.get (Json.member "stages" json)) in
  List.iter
    (fun s ->
      match Json.member "check" s with
      | Some Json.Null -> ()
      | _ -> Alcotest.fail "check must be null outside --check runs")
    stages

let suite =
  [
    Alcotest.test_case "legal oracle clean on flow output" `Quick test_legal_clean;
    Alcotest.test_case "legal oracle detects injected overlap" `Quick
      test_legal_detects_injected_overlap;
    Alcotest.test_case "finite oracle detects NaN" `Quick test_finite_detects_nan;
    Alcotest.test_case "legalizer is idempotent" `Quick test_legalizer_idempotent;
    Alcotest.test_case "netbox oracle clean and corrupted" `Quick
      test_netbox_sync_clean_and_corrupted;
    Alcotest.test_case "gradient oracle" `Quick test_gradient_oracle;
    Alcotest.test_case "validate oracle carries names" `Quick test_validate_oracle_names;
    Alcotest.test_case "bookshelf oracle clean" `Quick test_bookshelf_oracle_clean;
    Alcotest.test_case "flow --check clean in both modes" `Slow
      test_flow_check_clean_both_modes;
    Alcotest.test_case "injected netbox corruption attributed" `Quick
      test_mutation_caught_and_attributed;
    Alcotest.test_case "uncached corruption still caught" `Quick
      test_mutation_uncached_still_caught;
    Alcotest.test_case "stage-trace schema (check mode)" `Quick test_trace_schema;
    Alcotest.test_case "stage-trace check null without --check" `Quick
      test_trace_check_null_without_check;
  ]
