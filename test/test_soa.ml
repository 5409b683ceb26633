(* Tests for the flat SoA netlist core: the of_design/to_design round
   trip, CSR adjacency invariants (the deduplicated cell<->net adjacency
   included), the x/y/orient aliasing contract, and
   bit-identity of every SoA kernel against the preserved record-path
   implementations in Dpp_refkernels — on each benchmark preset, with the
   pooled kernels checked at 1/2/4 worker domains. *)

module Design = Dpp_netlist.Design
module Types = Dpp_netlist.Types
module Soa = Dpp_netlist.Soa
module Pins = Dpp_wirelen.Pins
module Hpwl = Dpp_wirelen.Hpwl
module Model = Dpp_wirelen.Model
module Par_grad = Dpp_wirelen.Par_grad
module Netbox = Dpp_wirelen.Netbox
module Grid = Dpp_density.Grid
module Bell = Dpp_density.Bell
module Rudy = Dpp_congest.Rudy
module Pool = Dpp_par.Pool
module R = Dpp_refkernels.Record_path
module Fuzz = Dpp_core.Fuzz
module I32 = Dpp_util.Compact.I32

let designs_under_test () =
  List.map
    (fun spec -> Dpp_gen.Compose.build spec)
    (List.filter_map Dpp_gen.Presets.by_name [ "dp_add16"; "dp_mix_s"; "rand_ctrl" ])
  @ [ Fuzz.random_design ~seed:5 ~cells:150 ~nets:60; Tutil.random_design 3 ]

(* ----- round trip ----- *)

let test_roundtrip_presets () =
  List.iter
    (fun d ->
      let d' = Soa.to_design (Soa.of_design d) in
      Alcotest.(check bool)
        (d.Design.name ^ ": to_design (of_design d) = d")
        true (d' = d))
    (designs_under_test ())

(* the deduplicated adjacency against a naive per-net dedup of pin_cell:
   each net's distinct cells ascending, each cell's distinct nets ascending *)
let adjacency_is_naive_dedup (s : Soa.t) =
  let net_cells =
    Array.init s.Soa.num_nets (fun n ->
        let lo = I32.get s.Soa.net_pin_off n in
        List.init (Soa.net_degree s n) (fun k ->
            I32.get s.Soa.pin_cell (I32.get s.Soa.net_pin (lo + k)))
        |> List.sort_uniq compare)
  in
  let cell_nets = Array.make s.Soa.num_cells [] in
  for n = s.Soa.num_nets - 1 downto 0 do
    List.iter (fun c -> cell_nets.(c) <- n :: cell_nets.(c)) net_cells.(n)
  done;
  Array.for_all Fun.id
    (Array.mapi (fun n cs -> Array.to_list (Soa.cells_of_net s n) = cs) net_cells)
  && Array.for_all Fun.id
       (Array.mapi (fun c ns -> Array.to_list (Soa.nets_of_cell s c) = ns) cell_nets)

let prop_roundtrip_random =
  QCheck.Test.make ~name:"soa round trip on random designs" ~count:40 QCheck.small_int
    (fun seed ->
      let d = Fuzz.random_design ~seed ~cells:(60 + (seed mod 90)) ~nets:40 in
      let s = Soa.of_design d in
      Soa.to_design s = d && adjacency_is_naive_dedup s)

(* ----- the Soa geometry helpers against their Design versions ----- *)

(* A random design on an off-origin die with every orientation and every
   cell kind, placed anywhere: fixed cells and pads overhang the die or
   sit wholly outside it. *)
let mixed_design seed =
  let module Rect = Dpp_geom.Rect in
  let module Rng = Dpp_util.Rng in
  let rng = Rng.create seed in
  let rh = Rng.float_in rng 4.0 12.0 and rows = 1 + Rng.int rng 8 in
  let xl = Rng.float_in rng (-50.0) 50.0 and yl = Rng.float_in rng (-50.0) 50.0 in
  let die =
    Rect.make ~xl ~yl ~xh:(xl +. Rng.float_in rng 20.0 120.0) ~yh:(yl +. (float_of_int rows *. rh))
  in
  let b = Dpp_netlist.Builder.create ~die ~row_height:rh ~site_width:0.5 () in
  for k = 0 to 4 + Rng.int rng 40 do
    let kind =
      match Rng.int rng 3 with 0 -> Types.Fixed | 1 -> Types.Pad | _ -> Types.Movable
    in
    let w = Rng.float_in rng 0.5 30.0 and h = Rng.float_in rng 0.5 (3.0 *. rh) in
    let id =
      Dpp_netlist.Builder.add_cell b ~name:(Printf.sprintf "c%d" k) ~master:"M" ~w ~h ~kind
    in
    Dpp_netlist.Builder.set_position b id
      ~x:(Rng.float_in rng (die.Rect.xl -. 40.0) (die.Rect.xh +. 10.0))
      ~y:(Rng.float_in rng (die.Rect.yl -. 40.0) (die.Rect.yh +. 10.0));
    Dpp_netlist.Builder.set_orient b id (Rng.choose rng (Array.of_list Dpp_geom.Orient.all))
  done;
  Dpp_netlist.Builder.finish b

(* the fixed-obstacle list as group snapping built it from the records *)
let design_fixed_obstacles (d : Design.t) =
  Array.to_list (Design.fixed_ids d)
  |> List.filter_map (fun i ->
         match (Design.cell d i).Types.c_kind with
         | Types.Fixed -> Dpp_geom.Rect.intersection (Design.cell_rect d i) d.Design.die
         | Types.Pad | Types.Movable -> None)

let prop_helpers_match_design =
  QCheck.Test.make ~name:"soa geometry helpers bit-equal to Design" ~count:200 QCheck.small_int
    (fun seed ->
      let module Rect = Dpp_geom.Rect in
      let d = mixed_design seed in
      let s = Soa.of_design d in
      let bits = Int64.bits_of_float in
      let rect_bits (r : Rect.t) = List.map bits [ r.Rect.xl; r.Rect.yl; r.Rect.xh; r.Rect.yh ] in
      let nc = Design.num_cells d and nr = d.Design.num_rows in
      let die = d.Design.die in
      (* row edges, a hair either side of each, and far outside the die *)
      let ys =
        List.concat_map
          (fun r ->
            let y = Design.row_y d r in
            [ y; y -. 1e-9; y +. 1e-9 ])
          (List.init (nr + 1) Fun.id)
        @ [ die.Rect.yl -. 1000.0; die.Rect.yh +. 1000.0; Rect.center_y die ]
      in
      Soa.movable_ids s = Design.movable_ids d
      && Soa.fixed_ids s = Design.fixed_ids d
      && List.for_all
           (fun i ->
             bits (Soa.cell_center_x s i) = bits (Design.cell_center_x d i)
             && bits (Soa.cell_center_y s i) = bits (Design.cell_center_y d i))
           (List.init nc Fun.id)
      && List.for_all
           (fun r -> bits (Soa.row_y s r) = bits (Design.row_y d r))
           (List.init (nr + 3) (fun r -> r - 1))
      && List.for_all (fun y -> Soa.row_of_y s y = Design.row_of_y d y) ys
      && List.map rect_bits (Soa.fixed_obstacles s)
         = List.map rect_bits (design_fixed_obstacles d))

let test_roundtrip_shares_nothing () =
  let d = Tutil.random_design 11 in
  let s = Soa.of_design d in
  let d' = Soa.to_design s in
  (* the round-tripped design owns fresh coordinate arrays *)
  let saved = d'.Design.x.(0) in
  d.Design.x.(0) <- d.Design.x.(0) +. 7.0;
  Alcotest.(check (float 0.0)) "to_design copies coordinates" saved d'.Design.x.(0);
  d.Design.x.(0) <- d.Design.x.(0) -. 7.0

let test_aliasing_contract () =
  let d = Tutil.random_design 12 in
  let s = Soa.of_design d in
  d.Design.x.(1) <- 123.5;
  Alcotest.(check (float 0.0)) "soa.x aliases design.x" 123.5 s.Soa.x.(1);
  s.Soa.y.(2) <- 77.25;
  Alcotest.(check (float 0.0)) "writes through soa.y are visible" 77.25 d.Design.y.(2)

(* ----- CSR invariants ----- *)

let test_csr_consistency () =
  List.iter
    (fun d ->
      let s = Soa.of_design d in
      let name = d.Design.name in
      Alcotest.(check int) (name ^ ": cell csr total") s.Soa.num_pins
        (I32.get s.Soa.cell_pin_off s.Soa.num_cells);
      for c = 0 to s.Soa.num_cells - 1 do
        for k = I32.get s.Soa.cell_pin_off c to I32.get s.Soa.cell_pin_off (c + 1) - 1 do
          if I32.get s.Soa.pin_cell (I32.get s.Soa.cell_pin k) <> c then
            Alcotest.failf "%s: pin %d listed under cell %d but owned by %d" name
              (I32.get s.Soa.cell_pin k) c
              (I32.get s.Soa.pin_cell (I32.get s.Soa.cell_pin k))
        done
      done;
      for n = 0 to s.Soa.num_nets - 1 do
        let pins = (Design.net d n).Types.n_pins in
        let lo = I32.get s.Soa.net_pin_off n in
        Alcotest.(check int) (name ^ ": net degree") (Array.length pins)
          (Soa.net_degree s n);
        Array.iteri
          (fun i p ->
            if I32.get s.Soa.net_pin (lo + i) <> p then
              Alcotest.failf "%s: net %d pin order not preserved at slot %d" name n i;
            if I32.get s.Soa.pin_net p <> n then
              Alcotest.failf "%s: pin_net inverse broken for pin %d" name p)
          pins
      done)
    (designs_under_test ())

(* ----- kernel equivalence vs the record path ----- *)

let grad_equal ~what n soa_f ref_f =
  let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
  let gx' = Array.make n 0.0 and gy' = Array.make n 0.0 in
  let v = soa_f ~gx ~gy and v' = ref_f ~gx:gx' ~gy:gy' in
  if not (Float.equal v v') then
    Alcotest.failf "%s: value %.17g vs record %.17g" what v v';
  if not (Array.for_all2 Float.equal gx gx' && Array.for_all2 Float.equal gy gy') then
    Alcotest.failf "%s: gradient differs from the record path" what

let test_kernels_match_record_path () =
  List.iter
    (fun d ->
      let name = d.Design.name in
      let pins = Pins.build d in
      let rp = R.Rpins.build d in
      let cx, cy = Pins.centers_of_design d in
      let n = Design.num_cells d in
      let gamma = max 1.0 (0.02 *. Dpp_geom.Rect.width d.Design.die) in
      if not (Float.equal (Hpwl.total pins ~cx ~cy) (R.hpwl_total rp ~cx ~cy)) then
        Alcotest.failf "%s: hpwl differs from the record path" name;
      grad_equal ~what:(name ^ " wa") n
        (fun ~gx ~gy -> Model.value_grad Model.Wa pins ~gamma ~cx ~cy ~gx ~gy)
        (fun ~gx ~gy -> R.wa_value_grad rp ~gamma ~cx ~cy ~gx ~gy);
      grad_equal ~what:(name ^ " lse") n
        (fun ~gx ~gy -> Model.value_grad Model.Lse pins ~gamma ~cx ~cy ~gx ~gy)
        (fun ~gx ~gy -> R.lse_value_grad rp ~gamma ~cx ~cy ~gx ~gy);
      let soa = pins.Pins.soa in
      let nx, ny = Grid.dims_of_soa soa in
      let grid = Grid.of_soa soa ~nx ~ny in
      let bell = Bell.of_soa soa ~grid ~target_density:0.9 in
      let rbell = R.Rbell.create d ~grid ~target_density:0.9 in
      grad_equal ~what:(name ^ " bell") n
        (fun ~gx ~gy -> Bell.value_grad bell ~cx ~cy ~gx ~gy)
        (fun ~gx ~gy -> R.Rbell.value_grad rbell ~cx ~cy ~gx ~gy);
      let rd = Rudy.of_pins ~nx ~ny pins ~cx ~cy in
      let rr = R.rudy rp ~nx ~ny ~cx ~cy in
      if not (Array.for_all2 Float.equal rd.Rudy.demand rr) then
        Alcotest.failf "%s: rudy demand map differs from the record path" name;
      let nb = Netbox.build pins ~cx ~cy in
      for net = 0 to Design.num_nets d - 1 do
        if Array.length (Design.net d net).Types.n_pins >= 2 then begin
          let a0, a1, a2, a3 = Netbox.net_box nb net in
          let b0, b1, b2, b3 = R.net_box rp ~cx ~cy net in
          if
            not
              (Float.equal a0 b0 && Float.equal a1 b1 && Float.equal a2 b2
             && Float.equal a3 b3)
          then Alcotest.failf "%s: net %d box differs from the record rescan" name net
        end
      done)
    (designs_under_test ())

(* pooled kernels at 1/2/4 worker domains: the gradient and netbox paths
   must equal the serial (= record-identical) results exactly; the
   chunk-merged bell/RUDY paths must not depend on the worker count *)
let test_kernels_jobs_1_2_4 () =
  List.iter
    (fun d ->
      let name = d.Design.name in
      let pins = Pins.build d in
      let rp = R.Rpins.build d in
      let cx, cy = Pins.centers_of_design d in
      let n = Design.num_cells d in
      let gamma = max 1.0 (0.02 *. Dpp_geom.Rect.width d.Design.die) in
      let soa = pins.Pins.soa in
      let nx, ny = Grid.dims_of_soa soa in
      let grid = Grid.of_soa soa ~nx ~ny in
      let bell = Bell.of_soa soa ~grid ~target_density:0.9 in
      let at_jobs jobs =
        Pool.with_pool ~nworkers:jobs @@ fun pool ->
        let pg = Par_grad.create pool pins in
        let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
        let v = Par_grad.value_grad pg pool Model.Wa ~gamma ~cx ~cy ~gx ~gy in
        let bp = Bell.par_create bell in
        let bx = Array.make n 0.0 and by = Array.make n 0.0 in
        let bv = Bell.par_value_grad bp pool ~cx ~cy ~gx:bx ~gy:by in
        let rd = Rudy.of_pins ~pool ~nx ~ny pins ~cx ~cy in
        let nb = Netbox.build ~pool pins ~cx ~cy in
        v, gx, gy, bv, bx, by, rd.Rudy.demand, Netbox.total nb
      in
      (* anchor: the pooled gradient must equal the record path too *)
      let gx' = Array.make n 0.0 and gy' = Array.make n 0.0 in
      let vr = R.wa_value_grad rp ~gamma ~cx ~cy ~gx:gx' ~gy:gy' in
      let v1, px1, py1, b1, bx1, by1, rd1, nt1 = at_jobs 1 in
      if not (Float.equal v1 vr && Array.for_all2 Float.equal px1 gx') then
        Alcotest.failf "%s: pooled wa at 1 worker differs from the record path" name;
      ignore py1;
      List.iter
        (fun jobs ->
          let v, px, py, bv, bx, by, rd, nt = at_jobs jobs in
          let ok =
            Float.equal v1 v
            && Array.for_all2 Float.equal px1 px
            && Array.for_all2 Float.equal py1 py
            && Float.equal b1 bv
            && Array.for_all2 Float.equal bx1 bx
            && Array.for_all2 Float.equal by1 by
            && Array.for_all2 Float.equal rd1 rd
            && Float.equal nt1 nt
          in
          if not ok then
            Alcotest.failf "%s: pooled kernels at %d workers differ from 1" name jobs)
        [ 2; 4 ])
    (designs_under_test ())

(* ----- XL generator and PEKO ----- *)

let test_xl_deterministic_and_valid () =
  let d1 = Option.get (Dpp_gen.Xl.by_name ~seed:1 "xl10k") in
  let d2 = Option.get (Dpp_gen.Xl.by_name ~seed:1 "xl10k") in
  Alcotest.(check bool) "xl generator deterministic" true (d1 = d2);
  let issues = Dpp_netlist.Validate.check d1 in
  Alcotest.(check bool)
    (String.concat "; "
       (List.map
          (fun (i : Dpp_netlist.Validate.issue) -> i.Dpp_netlist.Validate.message)
          (Dpp_netlist.Validate.errors issues)))
    true
    (Dpp_netlist.Validate.errors issues = []);
  (* target size honored within the tile/pad rounding *)
  let cells = Design.num_cells d1 in
  Alcotest.(check bool)
    (Printf.sprintf "xl10k size %d within 5%% of 10000" cells)
    true
    (abs (cells - 10_000) < 500);
  (* the flat core digests it unchanged *)
  Alcotest.(check bool) "xl round trip" true (Soa.to_design (Soa.of_design d1) = d1)

let test_peko_optimum_attained () =
  let d, opt = Dpp_gen.Peko.build ~name:"peko" ~cells:2_000 () in
  let issues = Dpp_netlist.Validate.check d in
  Alcotest.(check bool) "peko validates" true (Dpp_netlist.Validate.errors issues = []);
  let pins = Pins.build d in
  let cx, cy = Pins.centers_of_design d in
  (* the shipped placement attains the analytic optimum exactly: every
     net spans (degree - 1) consecutive unit sites in one row *)
  Alcotest.(check (float 0.0)) "shipped placement HPWL = optimal HPWL" opt
    (Hpwl.total pins ~cx ~cy);
  (* and no placement can beat it, per net: spot-check the bound shape *)
  Array.iter
    (fun (n : Types.net) ->
      let k = Array.length n.Types.n_pins in
      Alcotest.(check bool) "net degree from the cycle" true (k >= 2 && k <= 8))
    d.Design.nets

(* The int32 CSR overflow gate: a pin total past the int32 range must
   fail fast at derivation time with the counted number in the message,
   and the largest representable total must pass silently. *)
let test_int32_overflow_guard () =
  let over = I32.max_value + 1 in
  (match Soa.guard_pin_count ~name:"synthetic_xl" over with
  | () -> Alcotest.fail "guard_pin_count accepted a pin total past the int32 range"
  | exception Failure msg ->
    let contains needle =
      let nl = String.length needle and hl = String.length msg in
      let rec go i = i + nl <= hl && (String.sub msg i nl = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "message names the design" true (contains "synthetic_xl");
    Alcotest.(check bool) "message carries the counted pin total" true
      (contains (string_of_int over)));
  (* the boundary itself is representable: no failure at exactly max *)
  Soa.guard_pin_count ~name:"at_the_edge" I32.max_value

let suite =
  [
    Alcotest.test_case "round trip on presets and fuzz designs" `Quick
      test_roundtrip_presets;
    Alcotest.test_case "int32 csr overflow guard" `Quick test_int32_overflow_guard;
    QCheck_alcotest.to_alcotest prop_roundtrip_random;
    QCheck_alcotest.to_alcotest prop_helpers_match_design;
    Alcotest.test_case "round trip shares no mutable state" `Quick
      test_roundtrip_shares_nothing;
    Alcotest.test_case "x/y aliasing contract" `Quick test_aliasing_contract;
    Alcotest.test_case "csr adjacency consistent" `Quick test_csr_consistency;
    Alcotest.test_case "kernels bit-identical to record path" `Quick
      test_kernels_match_record_path;
    Alcotest.test_case "pooled kernels at jobs 1/2/4" `Quick test_kernels_jobs_1_2_4;
    Alcotest.test_case "xl generator deterministic and valid" `Quick
      test_xl_deterministic_and_valid;
    Alcotest.test_case "peko ships at its analytic optimum" `Quick
      test_peko_optimum_attained;
  ]
