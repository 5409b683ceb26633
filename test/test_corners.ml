(* Corner-case tests for spots the main suites exercise only indirectly. *)

module Rect = Dpp_geom.Rect
module Types = Dpp_netlist.Types
module Builder = Dpp_netlist.Builder
module Design = Dpp_netlist.Design
module Kit = Dpp_gen.Kit
module Stdcells = Dpp_gen.Stdcells

let check_float = Alcotest.(check (float 1e-9))

(* ---------------- Kit ---------------- *)

let test_kit_naming () =
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:100.0 ~yh:100.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let kit = Kit.create b ~prefix:"blk" in
  Alcotest.(check string) "first" "blk/x_0" (Kit.fresh_name kit "x");
  Alcotest.(check string) "second" "blk/x_1" (Kit.fresh_name kit "x");
  Alcotest.(check string) "separate stem" "blk/y_0" (Kit.fresh_name kit "y")

let test_kit_cell_pins () =
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:100.0 ~yh:100.0 in
  let b = Builder.create ~die ~row_height:Stdcells.row_height ~site_width:1.0 () in
  let kit = Kit.create b ~prefix:"t" in
  let inst = Kit.cell kit Stdcells.fa in
  Alcotest.(check int) "fa inputs" 3 (Array.length inst.Kit.ins);
  Alcotest.(check int) "fa outputs" 2 (Array.length inst.Kit.outs);
  let d = Builder.finish b in
  (* pin directions recorded *)
  Array.iter
    (fun p ->
      Alcotest.(check bool) "input dir" true ((Design.pin d p).Types.p_dir = Types.Input))
    inst.Kit.ins;
  Array.iter
    (fun p ->
      Alcotest.(check bool) "output dir" true ((Design.pin d p).Types.p_dir = Types.Output))
    inst.Kit.outs

(* ---------------- Csvout / Series formatting ---------------- *)

let test_float_cell () =
  Alcotest.(check string) "compact" "1.5" (Dpp_util.Csvout.float_cell 1.5);
  Alcotest.(check string) "large" "1.23457e+08" (Dpp_util.Csvout.float_cell 123456789.0)

(* ---------------- Delay ---------------- *)

let test_delay_override () =
  let d = Dpp_timing.Delay.with_wire_delay 0.25 Dpp_timing.Delay.default in
  check_float "wire delay set" 0.25 d.Dpp_timing.Delay.wire_delay_per_unit;
  check_float "gate table untouched" 1.0 (d.Dpp_timing.Delay.gate_delay "INV")

(* ---------------- Dgroup ordering behaviour ---------------- *)

let test_chain_ordering_places_connected_stages_adjacent () =
  (* a 6-slice, 3-stage group whose stage connectivity is 0-2 and 2-1:
     the dataflow order is 0,2,1 so stage 2 must sit between 0 and 1 *)
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:300.0 ~yh:100.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let mk name =
    let id = Builder.add_cell b ~name ~master:"X" ~w:4.0 ~h:10.0 ~kind:Types.Movable in
    let i = Builder.add_pin b ~cell:id ~dir:Types.Input ~dx:1.0 ~dy:5.0 () in
    let o = Builder.add_pin b ~cell:id ~dir:Types.Output ~dx:3.0 ~dy:5.0 () in
    id, i, o
  in
  let rows =
    Array.init 6 (fun s ->
        let c0, _, o0 = mk (Printf.sprintf "a%d" s) in
        let c1, i1, _ = mk (Printf.sprintf "b%d" s) in
        let c2, i2, o2 = mk (Printf.sprintf "c%d" s) in
        (* connectivity: a -> c -> b *)
        ignore (Builder.add_net b [ o0; i2 ]);
        ignore (Builder.add_net b [ o2; i1 ]);
        [| c0; c1; c2 |])
  in
  Builder.add_group b (Dpp_netlist.Groups.make "g" rows);
  let d = Builder.finish b in
  let cx, cy = Dpp_wirelen.Pins.centers_of_design d in
  let soa = Dpp_netlist.Soa.of_design d in
  match Dpp_structure.Dgroup.build_all_ordered soa d.Design.groups ~cx ~cy with
  | [ dg ] ->
    (* in the idealized array, |x(a) - x(c)| and |x(c) - x(b)| must both be
       smaller than |x(a) - x(b)| (stage c between a and b) *)
    let off_of cell =
      let rec find k = if dg.Dpp_structure.Dgroup.cells.(k) = cell then k else find (k + 1) in
      dg.Dpp_structure.Dgroup.off_x.(find 0)
    in
    let xa = off_of rows.(0).(0) and xb = off_of rows.(0).(1) and xc = off_of rows.(0).(2) in
    Alcotest.(check bool) "c between a and b" true
      (abs_float (xa -. xc) < abs_float (xa -. xb) && abs_float (xc -. xb) < abs_float (xa -. xb))
  | _ -> Alcotest.fail "expected one group"

(* ---------------- Netclass boundary ---------------- *)

let test_netclass_threshold_boundary () =
  (* a net with exactly max_data_degree movable cells is Data; one more is
     Control *)
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:200.0 ~yh:100.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let mk name =
    let id = Builder.add_cell b ~name ~master:"X" ~w:2.0 ~h:10.0 ~kind:Types.Movable in
    Builder.add_pin b ~cell:id ~dir:Types.Input ()
  in
  let pins5 = List.init 5 (fun k -> mk (Printf.sprintf "a%d" k)) in
  let pins6 = List.init 6 (fun k -> mk (Printf.sprintf "b%d" k)) in
  ignore (Builder.add_net b pins5);
  ignore (Builder.add_net b pins6);
  let d = Builder.finish b in
  let nc = Dpp_extract.Netclass.classify (Dpp_netlist.Soa.of_design d) ~max_data_degree:5 in
  Alcotest.(check bool) "5 cells = data" true (Dpp_extract.Netclass.kind nc 0 = Dpp_extract.Netclass.Data);
  Alcotest.(check bool) "6 cells = control" true
    (Dpp_extract.Netclass.kind nc 1 = Dpp_extract.Netclass.Control)

(* ---------------- Nstats row integrity ---------------- *)

let test_nstats_csv_row () =
  let d = Dpp_gen.Compose.build (List.nth Dpp_gen.Presets.suite 4) in
  let s = Dpp_netlist.Nstats.compute d in
  let row = Dpp_netlist.Nstats.to_row s in
  Alcotest.(check int) "row arity" (List.length Dpp_netlist.Nstats.header) (List.length row);
  (* numeric columns parse *)
  List.iteri
    (fun i cell -> if i > 0 && float_of_string_opt cell = None then
        Alcotest.failf "column %d not numeric: %s" i cell)
    row

(* ---------------- Flip on symmetric-pin cells ---------------- *)

let test_flip_noop_on_symmetric_pins () =
  (* a cell whose single pin sits exactly at its center gains nothing from
     flipping: the pass must leave it at N *)
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:60.0 ~yh:20.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let c0 = Builder.add_cell b ~name:"sym" ~master:"X" ~w:4.0 ~h:10.0 ~kind:Types.Movable in
  let p0 = Builder.add_pin b ~cell:c0 ~dir:Types.Output ~dx:2.0 ~dy:5.0 () in
  let c1 = Builder.add_cell b ~name:"o" ~master:"X" ~w:4.0 ~h:10.0 ~kind:Types.Movable in
  let p1 = Builder.add_pin b ~cell:c1 ~dir:Types.Input ~dx:2.0 ~dy:5.0 () in
  ignore (Builder.add_net b [ p0; p1 ]);
  Builder.set_position b c0 ~x:0.0 ~y:0.0;
  Builder.set_position b c1 ~x:40.0 ~y:0.0;
  let d = Builder.finish b in
  let cx, cy = Dpp_wirelen.Pins.centers_of_design d in
  let netbox = Dpp_wirelen.Netbox.build (Dpp_wirelen.Pins.build d) ~cx ~cy in
  let stats = Dpp_place.Flip.run ~netbox () in
  Alcotest.(check int) "no flips" 0 stats.Dpp_place.Flip.flips;
  Alcotest.(check bool) "orientation unchanged" true
    (d.Design.orient.(c0) = Dpp_geom.Orient.N)

let suite =
  [
    Alcotest.test_case "kit naming" `Quick test_kit_naming;
    Alcotest.test_case "kit cell pins" `Quick test_kit_cell_pins;
    Alcotest.test_case "csv float cell" `Quick test_float_cell;
    Alcotest.test_case "delay override" `Quick test_delay_override;
    Alcotest.test_case "chain ordering adjacency" `Quick test_chain_ordering_places_connected_stages_adjacent;
    Alcotest.test_case "netclass boundary" `Quick test_netclass_threshold_boundary;
    Alcotest.test_case "nstats csv row" `Quick test_nstats_csv_row;
    Alcotest.test_case "flip symmetric noop" `Quick test_flip_noop_on_symmetric_pins;
  ]
