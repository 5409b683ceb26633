(* Failure-injection / fixed-obstacle coverage: designs with fixed macro
   blockages must flow end-to-end with legality preserved, and the
   substrates must account for the blocked capacity. *)

module Soa = Dpp_netlist.Soa
module Rect = Dpp_geom.Rect
module Types = Dpp_netlist.Types
module Builder = Dpp_netlist.Builder
module Design = Dpp_netlist.Design
module Pins = Dpp_wirelen.Pins
module Legality = Dpp_place.Legality

(* a design with a central fixed macro and a ring of connected movables *)
let macro_design ~cells ~seed =
  let rng = Dpp_util.Rng.create seed in
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:120.0 ~yh:120.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let macro = Builder.add_cell b ~name:"ram0" ~master:"RAM" ~w:40.0 ~h:40.0 ~kind:Types.Fixed in
  Builder.set_position b macro ~x:40.0 ~y:40.0;
  let macro_pin = Builder.add_pin b ~cell:macro ~dir:Types.Output ~dx:20.0 ~dy:20.0 () in
  let prev_out = ref macro_pin in
  for k = 0 to cells - 1 do
    let w = float_of_int (2 + Dpp_util.Rng.int rng 4) in
    let id =
      Builder.add_cell b ~name:(Printf.sprintf "c%d" k) ~master:"INV" ~w ~h:10.0
        ~kind:Types.Movable
    in
    let i = Builder.add_pin b ~cell:id ~dir:Types.Input () in
    let o = Builder.add_pin b ~cell:id ~dir:Types.Output () in
    ignore (Builder.add_net b [ !prev_out; i ]);
    prev_out := o
  done;
  Builder.finish b

let small_cfg =
  { Dpp_core.Config.baseline with Dpp_core.Config.gp_rounds = 8; gp_inner_iters = 25 }

let test_grid_capacity_blocked () =
  let d = macro_design ~cells:60 ~seed:3 in
  let g = Dpp_density.Grid.of_soa (Soa.of_design d) ~nx:12 ~ny:12 in
  Alcotest.(check (float 1e-6)) "capacity excludes the macro"
    (Rect.area d.Design.die -. 1600.0)
    (Dpp_density.Grid.total_capacity g)

let test_flow_avoids_macro () =
  let d = macro_design ~cells:150 ~seed:4 in
  let r = Dpp_core.Flow.run d small_cfg in
  let cx, cy = Pins.centers_of_design r.Dpp_core.Flow.design in
  let violations = Legality.check r.Dpp_core.Flow.design ~cx ~cy in
  if violations <> [] then
    Alcotest.failf "%d violations; first: %s" (List.length violations)
      (Format.asprintf "%a" (Legality.pp_violation r.Dpp_core.Flow.design) (List.hd violations))

let test_sa_flow_with_macro () =
  (* structure-aware on a macro design without groups must equal baseline
     and stay legal *)
  let d = macro_design ~cells:150 ~seed:5 in
  let base, sa =
    Dpp_core.Flow.run_both d { small_cfg with Dpp_core.Config.mode = Dpp_core.Config.Structure_aware }
  in
  Alcotest.(check (float 1e-6)) "identical without groups" base.Dpp_core.Flow.hpwl_final
    sa.Dpp_core.Flow.hpwl_final

let test_macro_chain_hugs_macro () =
  (* the chain hangs off the macro's pin: placement should keep the chain's
     first cells near the macro, i.e. final HPWL far below the worst case *)
  let d = macro_design ~cells:100 ~seed:6 in
  let r = Dpp_core.Flow.run d small_cfg in
  let die_span = Rect.width d.Design.die +. Rect.height d.Design.die in
  Alcotest.(check bool) "chain stays local" true
    (r.Dpp_core.Flow.hpwl_final < 0.5 *. float_of_int 101 *. die_span)

let test_validate_macro_overfull () =
  (* macro so large the movables cannot fit: flow must refuse *)
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:50.0 ~yh:50.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let m = Builder.add_cell b ~name:"big" ~master:"RAM" ~w:48.0 ~h:50.0 ~kind:Types.Fixed in
  Builder.set_position b m ~x:0.0 ~y:0.0;
  for k = 0 to 20 do
    ignore
      (Builder.add_cell b ~name:(Printf.sprintf "c%d" k) ~master:"INV" ~w:3.0 ~h:10.0
         ~kind:Types.Movable)
  done;
  let d = Builder.finish b in
  Alcotest.(check bool) "flow refuses" true
    (try
       ignore (Dpp_core.Flow.run d small_cfg);
       false
     with Dpp_core.Flow.Invalid_design _ -> true)

let suite =
  [
    Alcotest.test_case "grid capacity blocked" `Quick test_grid_capacity_blocked;
    Alcotest.test_case "flow avoids macro" `Slow test_flow_avoids_macro;
    Alcotest.test_case "sa flow with macro" `Slow test_sa_flow_with_macro;
    Alcotest.test_case "macro chain locality" `Slow test_macro_chain_hugs_macro;
    Alcotest.test_case "overfull macro refused" `Quick test_validate_macro_overfull;
  ]

(* appended: movable multi-row macro (mixed-size) coverage *)

let ram_spec =
  {
    Dpp_gen.Compose.sp_name = "ramtest";
    sp_seed = 77;
    sp_blocks =
      [ Dpp_gen.Compose.Ram (30, 6, 8); Ram (24, 4, 8); Regbank 8; Adder 8 ];
    sp_random_cells = 400;
    sp_utilization = 0.6;
  }

let test_ram_block () =
  let d = Dpp_gen.Compose.build ram_spec in
  Alcotest.(check bool) "validates" true
    (Dpp_netlist.Validate.is_clean (Dpp_netlist.Validate.check d));
  let macros = Dpp_structure.Dgroup.movable_macros (Dpp_netlist.Soa.of_design d) in
  Alcotest.(check int) "two movable macros" 2 (List.length macros);
  (* only the bit-sliced blocks carry ground truth *)
  Alcotest.(check int) "groups exclude rams" 2 (List.length d.Dpp_netlist.Design.groups)

let test_mixed_size_flow_legal () =
  let d = Dpp_gen.Compose.build ram_spec in
  List.iter
    (fun mode ->
      let cfg = { small_cfg with Dpp_core.Config.mode } in
      let r = Dpp_core.Flow.run d cfg in
      let cx, cy = Pins.centers_of_design r.Dpp_core.Flow.design in
      let v = Legality.check r.Dpp_core.Flow.design ~cx ~cy in
      if v <> [] then
        Alcotest.failf "%s: %d violations; first: %s"
          (Dpp_core.Config.mode_to_string mode)
          (List.length v)
          (Format.asprintf "%a" (Legality.pp_violation r.Dpp_core.Flow.design) (List.hd v)))
    [ Dpp_core.Config.Baseline; Dpp_core.Config.Structure_aware ]

let test_macro_dgroup_shape () =
  let d = Dpp_gen.Compose.build ram_spec in
  let soa = Dpp_netlist.Soa.of_design d in
  match Dpp_structure.Dgroup.movable_macros soa with
  | i :: _ ->
    let dg = Dpp_structure.Dgroup.of_movable_macro soa i in
    let c = Design.cell d i in
    Alcotest.(check (float 1e-9)) "width" c.Types.c_width dg.Dpp_structure.Dgroup.width;
    Alcotest.(check (float 1e-9)) "height" c.Types.c_height dg.Dpp_structure.Dgroup.height;
    Alcotest.(check int) "one member" 1 (Array.length dg.Dpp_structure.Dgroup.cells)
  | [] -> Alcotest.fail "no macros found"

let suite =
  suite
  @ [
      Alcotest.test_case "ram block" `Quick test_ram_block;
      Alcotest.test_case "mixed-size flow legal" `Slow test_mixed_size_flow_legal;
      Alcotest.test_case "macro dgroup shape" `Quick test_macro_dgroup_shape;
    ]
