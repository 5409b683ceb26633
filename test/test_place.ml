(* Tests for Dpp_place: Qp, Gp, Legal, Abacus, Detail, Legality. *)

module Rect = Dpp_geom.Rect
module Types = Dpp_netlist.Types
module Builder = Dpp_netlist.Builder
module Design = Dpp_netlist.Design
module Pins = Dpp_wirelen.Pins
module Hpwl = Dpp_wirelen.Hpwl
module Qp = Dpp_place.Qp
module Soa = Dpp_netlist.Soa
module Gp = Dpp_place.Gp
module Legal = Dpp_place.Legal
module Abacus = Dpp_place.Abacus
module Detail = Dpp_place.Detail
module Legality = Dpp_place.Legality
module Compose = Dpp_gen.Compose

let place_design seed =
  Compose.build
    {
      Compose.sp_name = "pl";
      sp_seed = seed;
      sp_blocks = [ Compose.Adder 8 ];
      sp_random_cells = 250;
      sp_utilization = 0.7;
    }

(* ---------------- Qp ---------------- *)

let test_qp_pulls_connected_cells_together () =
  (* two movables connected to opposite fixed pads end between them *)
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:100.0 ~yh:50.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let pad x =
    let id = Builder.add_cell b ~name:(Printf.sprintf "p%f" x) ~master:"PAD" ~w:1.0 ~h:1.0 ~kind:Types.Pad in
    Builder.set_position b id ~x ~y:25.0;
    Builder.add_pin b ~cell:id ~dir:Types.Output ()
  in
  let p_left = pad 0.0 and p_right = pad 99.0 in
  let mk name =
    let id = Builder.add_cell b ~name ~master:"X" ~w:2.0 ~h:10.0 ~kind:Types.Movable in
    let i = Builder.add_pin b ~cell:id ~dir:Types.Input () in
    let o = Builder.add_pin b ~cell:id ~dir:Types.Output () in
    id, i, o
  in
  let a, ai, ao = mk "a" in
  let c, ci, co = mk "c" in
  ignore (Builder.add_net b [ p_left; ai ]);
  ignore (Builder.add_net b [ ao; ci ]);
  ignore (Builder.add_net b [ co; p_right ]);
  let d = Builder.finish b in
  let r = Qp.run ~seed:1 (Soa.of_design d) in
  Alcotest.(check bool) "a left of c" true (r.Qp.cx.(a) < r.Qp.cx.(c));
  Alcotest.(check bool) "a in left-middle" true (r.Qp.cx.(a) > 10.0 && r.Qp.cx.(a) < 60.0);
  Alcotest.(check bool) "c in right-middle" true (r.Qp.cx.(c) > 40.0 && r.Qp.cx.(c) < 90.0)

let test_qp_inside_die () =
  let d = place_design 71 in
  let r = Qp.run ~seed:1 (Soa.of_design d) in
  let die = d.Design.die in
  Array.iter
    (fun i ->
      Alcotest.(check bool) "center inside" true
        (r.Qp.cx.(i) >= die.Rect.xl && r.Qp.cx.(i) <= die.Rect.xh
        && r.Qp.cy.(i) >= die.Rect.yl
        && r.Qp.cy.(i) <= die.Rect.yh))
    (Design.movable_ids d)

let test_qp_deterministic () =
  let d = place_design 72 in
  let soa = Soa.of_design d in
  let a = Qp.run ~seed:5 soa and b = Qp.run ~seed:5 soa in
  Alcotest.(check bool) "same result" true (a.Qp.cx = b.Qp.cx && a.Qp.cy = b.Qp.cy)

(* the two axes on two workers must reproduce the serial solve exactly *)
let check_qp_pool_matches_serial d =
  let soa = Soa.of_design d in
  let serial = Qp.run ~seed:3 soa in
  let par = Dpp_par.Pool.with_pool ~nworkers:2 (fun pool -> Qp.run ~seed:3 ~pool soa) in
  let bits a = Array.map Int64.bits_of_float a in
  Alcotest.(check (array int64)) "cx" (bits serial.Qp.cx) (bits par.Qp.cx);
  Alcotest.(check (array int64)) "cy" (bits serial.Qp.cy) (bits par.Qp.cy);
  Alcotest.(check int) "iterations x" serial.Qp.iterations_x par.Qp.iterations_x;
  Alcotest.(check int) "iterations y" serial.Qp.iterations_y par.Qp.iterations_y;
  Alcotest.(check (pair bool bool)) "converged"
    (serial.Qp.converged_x, serial.Qp.converged_y) (par.Qp.converged_x, par.Qp.converged_y);
  Alcotest.(check (pair int64 int64)) "residuals"
    (Int64.bits_of_float serial.Qp.residual_x, Int64.bits_of_float serial.Qp.residual_y)
    (Int64.bits_of_float par.Qp.residual_x, Int64.bits_of_float par.Qp.residual_y)

let test_qp_pool_dp_mix_s () =
  let spec = Option.get (Dpp_gen.Presets.by_name "dp_mix_s") in
  check_qp_pool_matches_serial (Compose.build spec)

let test_qp_pool_xl10k () =
  check_qp_pool_matches_serial (Option.get (Dpp_gen.Xl.by_name ~seed:1 "xl10k"))

let test_qp_reports_cap () =
  (* xl10k stops at the iteration cap on both axes; the result says so *)
  let d = Option.get (Dpp_gen.Xl.by_name ~seed:1 "xl10k") in
  let r = Qp.run ~seed:1 (Soa.of_design d) in
  Alcotest.(check (pair int int)) "at the cap" (Qp.max_iter, Qp.max_iter)
    (r.Qp.iterations_x, r.Qp.iterations_y);
  Alcotest.(check (pair bool bool)) "not converged" (false, false)
    (r.Qp.converged_x, r.Qp.converged_y);
  Alcotest.(check bool) "residuals positive" true (r.Qp.residual_x > 0.0 && r.Qp.residual_y > 0.0);
  (* and a small design converges well inside it *)
  let d = place_design 74 in
  let r = Qp.run ~seed:1 (Soa.of_design d) in
  Alcotest.(check (pair bool bool)) "small design converges" (true, true)
    (r.Qp.converged_x, r.Qp.converged_y)

let test_qp_improves_hpwl () =
  let d = place_design 73 in
  let pins = Pins.build d in
  (* start: everything at die center via QP result vs cells at (0, 0) *)
  let nc = Design.num_cells d in
  let zero_x = Array.init nc (fun i -> Design.cell_center_x d i) in
  let zero_y = Array.init nc (fun i -> Design.cell_center_y d i) in
  let before = Hpwl.total pins ~cx:zero_x ~cy:zero_y in
  let r = Qp.run ~seed:1 (Soa.of_design d) in
  let after = Hpwl.total pins ~cx:r.Qp.cx ~cy:r.Qp.cy in
  Alcotest.(check bool) "qp reduces wirelength vs piled-at-origin" true (after < before)

(* ---------------- Gp ---------------- *)

let test_gp_reduces_overflow () =
  let d = place_design 74 in
  let soa = Soa.of_design d in
  let qp = Qp.run ~seed:1 soa in
  let grid = Dpp_density.Grid.of_soa soa ~nx:16 ~ny:16 in
  let before =
    Dpp_density.Overflow.total_overflow soa grid ~target_density:0.9 ~cx:qp.Qp.cx ~cy:qp.Qp.cy
  in
  let gp = Gp.run ~pins:(Pins.build d) Gp.default_config ~cx:qp.Qp.cx ~cy:qp.Qp.cy in
  Alcotest.(check bool) "overflow reduced" true (gp.Gp.final_overflow < before);
  Alcotest.(check bool) "reaches target-ish" true (gp.Gp.final_overflow < 0.15)

let test_gp_trace_monotone_overflow () =
  let d = place_design 75 in
  let qp = Qp.run ~seed:1 (Soa.of_design d) in
  let gp =
    Gp.run ~pins:(Pins.build d) { Gp.default_config with Gp.rounds = 8 } ~cx:qp.Qp.cx
      ~cy:qp.Qp.cy
  in
  Alcotest.(check bool) "trace nonempty" true (gp.Gp.trace <> []);
  (* overflow should broadly decrease over rounds *)
  let ovfs = List.map (fun (ri : Gp.round_info) -> ri.Gp.overflow) gp.Gp.trace in
  let first = List.hd ovfs and last = List.nth ovfs (List.length ovfs - 1) in
  Alcotest.(check bool) "first >= last" true (first >= last -. 0.02)

let test_gp_rigid_groups_stay_arrays () =
  let d =
    Compose.build
      {
        Compose.sp_name = "gr";
        sp_seed = 76;
        sp_blocks = [ Compose.Adder 16 ];
        sp_random_cells = 200;
        sp_utilization = 0.7;
      }
  in
  let pins = Pins.build d in
  let qp = Qp.run ~seed:1 pins.Pins.soa in
  let dgs = Dpp_structure.Dgroup.build_all pins.Pins.soa d.Design.groups in
  let cfg = { Gp.default_config with Gp.rigid_groups = dgs } in
  let gp = Gp.run ~pins cfg ~cx:qp.Qp.cx ~cy:qp.Qp.cy in
  List.iter
    (fun dg ->
      Alcotest.(check (float 1e-6)) "rigid group is an exact array" 0.0
        (Dpp_structure.Dgroup.alignment_error dg ~cx:gp.Gp.cx ~cy:gp.Gp.cy))
    dgs

let test_gp_soft_groups_reduce_alignment_error () =
  let d =
    Compose.build
      {
        Compose.sp_name = "gs";
        sp_seed = 77;
        sp_blocks = [ Compose.Adder 16 ];
        sp_random_cells = 200;
        sp_utilization = 0.7;
      }
  in
  let pins = Pins.build d in
  let qp = Qp.run ~seed:1 pins.Pins.soa in
  let dgs = Dpp_structure.Dgroup.build_all pins.Pins.soa d.Design.groups in
  let base = Gp.run ~pins Gp.default_config ~cx:qp.Qp.cx ~cy:qp.Qp.cy in
  let soft =
    Gp.run ~pins { Gp.default_config with Gp.groups = dgs; beta = 2.0 } ~cx:qp.Qp.cx
      ~cy:qp.Qp.cy
  in
  let err r = Dpp_structure.Alignment.total_error dgs ~cx:r.Gp.cx ~cy:r.Gp.cy in
  Alcotest.(check bool) "soft alignment tightens groups" true (err soft < err base)

(* ---------------- Legal + Abacus ---------------- *)

let run_legalization d =
  let pins = Pins.build d in
  let qp = Qp.run ~seed:1 pins.Pins.soa in
  let gp = Gp.run ~pins Gp.default_config ~cx:qp.Qp.cx ~cy:qp.Qp.cy in
  let legal = Legal.run pins.Pins.soa ~cx:gp.Gp.cx ~cy:gp.Gp.cy () in
  Abacus.run pins.Pins.soa ~target_cx:gp.Gp.cx ~legal ();
  gp, legal

(* a fresh pin view and the netbox over [legal]'s live arrays — what the
   flow's detail and flip stages share *)
let netbox_over d (legal : Legal.t) =
  Dpp_wirelen.Netbox.build (Pins.build d) ~cx:legal.Legal.cx ~cy:legal.Legal.cy

let test_legalization_is_legal () =
  let d = place_design 78 in
  let _, legal = run_legalization d in
  Alcotest.(check (list string)) "no failures" []
    (List.map string_of_int legal.Legal.failed);
  let v = Legality.check d ~cx:legal.Legal.cx ~cy:legal.Legal.cy in
  if v <> [] then
    Alcotest.failf "%d violations, first: %s" (List.length v)
      (Format.asprintf "%a" (Legality.pp_violation d) (List.hd v))

let test_legalization_respects_obstacles () =
  let d = place_design 79 in
  let soa = Soa.of_design d in
  let qp = Qp.run ~seed:1 soa in
  let die = d.Design.die in
  let ob =
    Rect.make ~xl:die.Rect.xl ~yl:die.Rect.yl
      ~xh:(die.Rect.xl +. (Rect.width die /. 3.0))
      ~yh:(die.Rect.yl +. 30.0)
  in
  let legal = Legal.run soa ~extra_obstacles:[ ob ] ~cx:qp.Qp.cx ~cy:qp.Qp.cy () in
  Array.iter
    (fun i ->
      if legal.Legal.assignment.(i) >= 0 then begin
        let c = Design.cell d i in
        let r =
          Rect.of_center ~cx:legal.Legal.cx.(i) ~cy:legal.Legal.cy.(i) ~w:c.Types.c_width
            ~h:c.Types.c_height
        in
        if Rect.overlap_area r ob > 1e-6 then Alcotest.failf "cell %d inside obstacle" i
      end)
    (Design.movable_ids d)

let test_legalization_skip () =
  let d = place_design 80 in
  let soa = Soa.of_design d in
  let qp = Qp.run ~seed:1 soa in
  let skip i = i < 5 in
  let legal = Legal.run soa ~skip ~cx:qp.Qp.cx ~cy:qp.Qp.cy () in
  for i = 0 to 4 do
    if not (Types.is_fixed_kind (Design.cell d i).Types.c_kind) then begin
      Alcotest.(check int) "skipped unassigned" (-1) legal.Legal.assignment.(i);
      Alcotest.(check (float 1e-12)) "skipped untouched" qp.Qp.cx.(i) legal.Legal.cx.(i)
    end
  done

let test_abacus_reduces_displacement () =
  let d = place_design 81 in
  let pins = Pins.build d in
  let qp = Qp.run ~seed:1 pins.Pins.soa in
  let gp = Gp.run ~pins Gp.default_config ~cx:qp.Qp.cx ~cy:qp.Qp.cy in
  let legal1 = Legal.run pins.Pins.soa ~cx:gp.Gp.cx ~cy:gp.Gp.cy () in
  let disp l =
    Array.fold_left
      (fun acc i ->
        if l.Legal.assignment.(i) >= 0 then acc +. abs_float (l.Legal.cx.(i) -. gp.Gp.cx.(i))
        else acc)
      0.0 (Design.movable_ids d)
  in
  let before = disp legal1 in
  Abacus.run pins.Pins.soa ~target_cx:gp.Gp.cx ~legal:legal1 ();
  let after = disp legal1 in
  Alcotest.(check bool) "abacus does not worsen displacement" true (after <= before +. 1e-6)

(* ---------------- Detail ---------------- *)

let test_detail_improves_and_stays_legal () =
  let d = place_design 82 in
  let gp, legal = run_legalization d in
  let pins = Pins.build d in
  let before = Hpwl.total pins ~cx:legal.Legal.cx ~cy:legal.Legal.cy in
  let stats = Detail.run ~max_passes:3 ~netbox:(netbox_over d legal) ~legal () in
  let after = Hpwl.total pins ~cx:legal.Legal.cx ~cy:legal.Legal.cy in
  ignore gp;
  Alcotest.(check bool) "hpwl not worse" true (after <= before +. 1e-6);
  Alcotest.(check bool) "claimed gain matches" true
    (abs_float (before -. after -. (stats.Detail.reorder_gain +. stats.Detail.swap_gain)) < 1e-3);
  let v = Legality.check d ~cx:legal.Legal.cx ~cy:legal.Legal.cy in
  if v <> [] then
    Alcotest.failf "detail broke legality: %s"
      (Format.asprintf "%a" (Legality.pp_violation d) (List.hd v))

let test_detail_skip_frozen () =
  let d = place_design 83 in
  let _, legal = run_legalization d in
  let frozen = Array.copy legal.Legal.cx in
  let skip i = i mod 7 = 0 in
  ignore (Detail.run ~max_passes:2 ~skip ~netbox:(netbox_over d legal) ~legal ());
  Array.iter
    (fun i ->
      if skip i && legal.Legal.assignment.(i) >= 0 then
        Alcotest.(check (float 1e-12)) "frozen cell untouched" frozen.(i) legal.Legal.cx.(i))
    (Design.movable_ids d)

(* ---------------- Legality ---------------- *)

let test_legality_detects_violations () =
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:40.0 ~yh:20.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let c0 = Builder.add_cell b ~name:"a" ~master:"X" ~w:4.0 ~h:10.0 ~kind:Types.Movable in
  let c1 = Builder.add_cell b ~name:"b" ~master:"X" ~w:4.0 ~h:10.0 ~kind:Types.Movable in
  let d = Builder.finish b in
  let cx = [| 2.0; 4.0 |] and cy = [| 5.0; 5.0 |] in
  (* overlapping pair *)
  let v = Legality.check d ~cx ~cy in
  Alcotest.(check bool) "overlap found" true
    (List.exists (function Legality.Overlap (a, b) -> a = c0 && b = c1 | _ -> false) v);
  (* clean placement passes *)
  let cx = [| 2.0; 10.0 |] in
  Alcotest.(check bool) "clean passes" true (Legality.is_legal d ~cx ~cy);
  (* off-row *)
  let cy2 = [| 6.0; 5.0 |] in
  let v = Legality.check d ~cx ~cy:cy2 in
  Alcotest.(check bool) "off-row found" true
    (List.exists (function Legality.Off_row _ -> true | _ -> false) v)

let suite =
  [
    Alcotest.test_case "qp pulls chain" `Quick test_qp_pulls_connected_cells_together;
    Alcotest.test_case "qp inside die" `Quick test_qp_inside_die;
    Alcotest.test_case "qp deterministic" `Quick test_qp_deterministic;
    Alcotest.test_case "qp improves hpwl" `Quick test_qp_improves_hpwl;
    Alcotest.test_case "qp 2 workers = serial (dp_mix_s)" `Quick test_qp_pool_dp_mix_s;
    Alcotest.test_case "qp 2 workers = serial (xl10k)" `Quick test_qp_pool_xl10k;
    Alcotest.test_case "qp reports iteration cap" `Quick test_qp_reports_cap;
    Alcotest.test_case "gp reduces overflow" `Slow test_gp_reduces_overflow;
    Alcotest.test_case "gp trace" `Slow test_gp_trace_monotone_overflow;
    Alcotest.test_case "gp rigid groups" `Slow test_gp_rigid_groups_stay_arrays;
    Alcotest.test_case "gp soft groups" `Slow test_gp_soft_groups_reduce_alignment_error;
    Alcotest.test_case "legalization legal" `Slow test_legalization_is_legal;
    Alcotest.test_case "legalization obstacles" `Quick test_legalization_respects_obstacles;
    Alcotest.test_case "legalization skip" `Quick test_legalization_skip;
    Alcotest.test_case "abacus displacement" `Slow test_abacus_reduces_displacement;
    Alcotest.test_case "detail improves" `Slow test_detail_improves_and_stays_legal;
    Alcotest.test_case "detail skip" `Slow test_detail_skip_frozen;
    Alcotest.test_case "legality detects" `Quick test_legality_detects_violations;
  ]

(* appended: orientation-flip pass *)

let test_flip_improves_and_preserves_legality () =
  let d = place_design 84 in
  let _, legal = run_legalization d in
  let pins_before = Pins.build d in
  let before = Hpwl.total pins_before ~cx:legal.Legal.cx ~cy:legal.Legal.cy in
  let stats = Dpp_place.Flip.run ~netbox:(netbox_over d legal) () in
  let pins_after = Pins.build d in
  let after = Hpwl.total pins_after ~cx:legal.Legal.cx ~cy:legal.Legal.cy in
  Alcotest.(check bool) "hpwl not worse" true (after <= before +. 1e-6);
  Alcotest.(check (float 1e-3)) "claimed gain" (before -. after) stats.Dpp_place.Flip.gain;
  Alcotest.(check bool) "some flips found" true (stats.Dpp_place.Flip.flips > 0);
  (* flipping never moves footprints *)
  let v = Legality.check d ~cx:legal.Legal.cx ~cy:legal.Legal.cy in
  Alcotest.(check int) "still legal" 0 (List.length v)

let test_flip_orientation_recorded () =
  let d = place_design 85 in
  let _, legal = run_legalization d in
  let stats = Dpp_place.Flip.run ~netbox:(netbox_over d legal) () in
  let flipped =
    Array.fold_left
      (fun acc o -> if o = Dpp_geom.Orient.FN then acc + 1 else acc)
      0 d.Design.orient
  in
  Alcotest.(check int) "orient array matches stats" stats.Dpp_place.Flip.flips flipped

let test_pins_respect_orientation () =
  (* a 2-cell design: flipping one cell mirrors its pin offset *)
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:40.0 ~yh:20.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let c0 = Builder.add_cell b ~name:"a" ~master:"X" ~w:4.0 ~h:10.0 ~kind:Types.Movable in
  let p0 = Builder.add_pin b ~cell:c0 ~dir:Types.Output ~dx:1.0 ~dy:5.0 () in
  let c1 = Builder.add_cell b ~name:"b" ~master:"X" ~w:4.0 ~h:10.0 ~kind:Types.Movable in
  let p1 = Builder.add_pin b ~cell:c1 ~dir:Types.Input ~dx:1.0 ~dy:5.0 () in
  ignore (Builder.add_net b [ p0; p1 ]);
  Builder.set_position b c0 ~x:0.0 ~y:0.0;
  Builder.set_position b c1 ~x:20.0 ~y:0.0;
  let d = Builder.finish b in
  let pins_n = Pins.build d in
  d.Design.orient.(c0) <- Dpp_geom.Orient.FN;
  let pins_fn = Pins.build d in
  (* offset from center was 1.0 - 2.0 = -1.0; mirrored becomes +1.0 *)
  Alcotest.(check (float 1e-9)) "N offset" (-1.0) pins_n.Pins.off_x.(p0);
  Alcotest.(check (float 1e-9)) "FN offset" 1.0 pins_fn.Pins.off_x.(p0);
  (* and agrees with the slow pin_position path *)
  let px, _ = Design.pin_position d p0 in
  Alcotest.(check (float 1e-9)) "pin_position agrees" px
    (Design.cell_center_x d c0 +. pins_fn.Pins.off_x.(p0))

let suite =
  suite
  @ [
      Alcotest.test_case "flip improves" `Slow test_flip_improves_and_preserves_legality;
      Alcotest.test_case "flip orientation recorded" `Slow test_flip_orientation_recorded;
      Alcotest.test_case "pins respect orientation" `Quick test_pins_respect_orientation;
    ]

(* appended: parallel back-end regressions — exact-footprint swaps, tall
   cells, and the indexed interval store *)

module Intervals = Dpp_place.Intervals
module Occ = Dpp_place.Occ

(* Widths 4.0 and 4.01 landed in one bucket under the old 1/16-site
   quantized swap key; swapping them slid the wider cell into its
   neighbour.  Detail must keep the placement legal. *)
let test_swap_requires_exact_footprint () =
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:40.0 ~yh:20.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:0.005 () in
  let mk name ~w ~x ~y =
    let id = Builder.add_cell b ~name ~master:"X" ~w ~h:10.0 ~kind:Types.Movable in
    let p = Builder.add_pin b ~cell:id ~dir:Types.Input ~dx:(w /. 2.0) ~dy:5.0 () in
    Builder.set_position b id ~x ~y;
    id, p
  in
  (* row 0: p then r abutting it; row 1: q, whose width differs from p's
     by one site *)
  let p, pp = mk "p" ~w:4.0 ~x:0.0 ~y:0.0 in
  let _r, _ = mk "r" ~w:4.01 ~x:4.0 ~y:0.0 in
  let q, qp = mk "q" ~w:4.01 ~x:0.0 ~y:10.0 in
  let pad name x y =
    let id = Builder.add_cell b ~name ~master:"PAD" ~w:1.0 ~h:1.0 ~kind:Types.Pad in
    Builder.set_position b id ~x ~y;
    Builder.add_pin b ~cell:id ~dir:Types.Output ()
  in
  (* p wants q's row and vice versa: the cross-row swap is attractive *)
  ignore (Builder.add_net b [ pad "a" 2.0 19.0; pp ]);
  ignore (Builder.add_net b [ pad "bb" 2.0 1.0; qp ]);
  let d = Builder.finish b in
  let nc = Design.num_cells d in
  let cx = Array.init nc (fun i -> Design.cell_center_x d i) in
  let cy = Array.init nc (fun i -> Design.cell_center_y d i) in
  let legal = Legal.run (Soa.of_design d) ~cx ~cy () in
  ignore (Detail.run ~max_passes:2 ~netbox:(netbox_over d legal) ~legal ());
  (* the move pass may relocate p and q legally; what the old quantized
     bucket did was *swap* their footprints, sliding the wider q into r *)
  ignore p;
  ignore q;
  let v = Legality.check d ~cx:legal.Legal.cx ~cy:legal.Legal.cy in
  if v <> [] then
    Alcotest.failf "detail broke legality: %s"
      (Format.asprintf "%a" (Legality.pp_violation d) (List.hd v))

(* A 2-row movable cell must not be treated as single-row by the detail
   passes, however attractive the move. *)
let test_detail_skips_tall_cells () =
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:40.0 ~yh:20.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let t = Builder.add_cell b ~name:"t" ~master:"TALL" ~w:4.0 ~h:20.0 ~kind:Types.Movable in
  let tp = Builder.add_pin b ~cell:t ~dir:Types.Input ~dx:2.0 ~dy:10.0 () in
  Builder.set_position b t ~x:0.0 ~y:0.0;
  let pad = Builder.add_cell b ~name:"far" ~master:"PAD" ~w:1.0 ~h:1.0 ~kind:Types.Pad in
  Builder.set_position b pad ~x:38.0 ~y:10.0;
  ignore (Builder.add_net b [ Builder.add_pin b ~cell:pad ~dir:Types.Output (); tp ]);
  let d = Builder.finish b in
  let nc = Design.num_cells d in
  let cx = Array.init nc (fun i -> Design.cell_center_x d i) in
  let cy = Array.init nc (fun i -> Design.cell_center_y d i) in
  (* hand the tall cell to Detail as a placed row-0 cell, the way a
     caller without the flow's macro handling would *)
  let legal = { Legal.assignment = Array.make nc 0; cx; cy; failed = [] } in
  let netbox = netbox_over d legal in
  ignore (Detail.run ~max_passes:2 ~netbox ~legal ());
  Alcotest.(check (float 1e-12)) "tall cell x untouched" 2.0 legal.Legal.cx.(t);
  Alcotest.(check (float 1e-12)) "tall cell y untouched" 10.0 legal.Legal.cy.(t);
  let stats = Dpp_place.Flip.run ~netbox () in
  Alcotest.(check int) "flip skips tall cells too" 0 stats.Dpp_place.Flip.flips

(* The old list-based split matched intervals by float equality of the
   bounds, so two identical intervals were both split; the indexed store
   allocates exactly the queried one. *)
let test_intervals_duplicate_bounds () =
  let t = Intervals.of_segments [ 0.0, 10.0; 0.0, 10.0 ] in
  (match Intervals.best_fit t ~w:4.0 ~target:0.0 with
  | None -> Alcotest.fail "no fit in duplicate intervals"
  | Some (cost, idx, xl) ->
    Alcotest.(check (float 1e-12)) "cost" 0.0 cost;
    Alcotest.(check (float 1e-12)) "xl" 0.0 xl;
    Intervals.alloc t idx ~xl ~w:4.0);
  Alcotest.(check int) "both intervals survive" 2 (Intervals.length t);
  let untouched =
    List.filter (fun (l, h) -> l = 0.0 && h = 10.0) (Intervals.to_list t)
  in
  Alcotest.(check int) "exactly one interval was split" 1 (List.length untouched)

let test_intervals_best_fit_and_split () =
  let t = Intervals.of_segments [ 0.0, 10.0; 20.0, 22.0; 30.0, 50.0 ] in
  (* nearest feasible interval wins, clamped to its bounds *)
  (match Intervals.best_fit t ~w:4.0 ~target:21.0 with
  | Some (_, _, xl) -> Alcotest.(check (float 1e-12)) "skips too-small interval" 30.0 xl
  | None -> Alcotest.fail "no fit");
  (match Intervals.best_fit t ~w:4.0 ~target:3.0 with
  | Some (cost, idx, xl) ->
    Alcotest.(check (float 1e-12)) "exact target" 0.0 cost;
    Alcotest.(check (float 1e-12)) "left interval" 3.0 xl;
    Intervals.alloc t idx ~xl ~w:4.0
  | None -> Alcotest.fail "no fit");
  Alcotest.(check bool) "split keeps both remnants" true
    (Intervals.to_list t = [ 0.0, 3.0; 7.0, 10.0; 20.0, 22.0; 30.0, 50.0 ]);
  Alcotest.(check bool) "nothing fits width 30" true
    (Intervals.best_fit t ~w:30.0 ~target:0.0 = None)

(* A fixed macro spanning rows 0-1 must block both rows' segments and
   leave row 2 whole. *)
let test_row_segments_multirow_macro () =
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:40.0 ~yh:30.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let m = Builder.add_cell b ~name:"m" ~master:"RAM" ~w:10.0 ~h:20.0 ~kind:Types.Fixed in
  Builder.set_position b m ~x:10.0 ~y:0.0;
  let d = Builder.finish b in
  let obstacles = [ Design.cell_rect d m ] in
  let segs r = Legal.row_segments (Soa.of_design d) obstacles r in
  Alcotest.(check bool) "row 0 split" true (segs 0 = [ 0.0, 10.0; 20.0, 40.0 ]);
  Alcotest.(check bool) "row 1 split" true (segs 1 = [ 0.0, 10.0; 20.0, 40.0 ]);
  Alcotest.(check bool) "row 2 whole" true (segs 2 = [ 0.0, 40.0 ])

let suite =
  suite
  @ [
      Alcotest.test_case "swap requires exact footprint" `Quick
        test_swap_requires_exact_footprint;
      Alcotest.test_case "detail skips tall cells" `Quick test_detail_skips_tall_cells;
      Alcotest.test_case "intervals duplicate bounds" `Quick test_intervals_duplicate_bounds;
      Alcotest.test_case "intervals best fit and split" `Quick
        test_intervals_best_fit_and_split;
      Alcotest.test_case "row segments multirow macro" `Quick
        test_row_segments_multirow_macro;
    ]
