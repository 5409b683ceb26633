(* Tests for Dpp_wirelen: HPWL, LSE, WA — exact values, model bounds, and
   finite-difference gradient verification. *)

module Rect = Dpp_geom.Rect
module Types = Dpp_netlist.Types
module Builder = Dpp_netlist.Builder
module Design = Dpp_netlist.Design
module Pins = Dpp_wirelen.Pins
module Hpwl = Dpp_wirelen.Hpwl
module Lse = Dpp_wirelen.Lse
module Wa = Dpp_wirelen.Wa
module Model = Dpp_wirelen.Model

let check_float = Alcotest.(check (float 1e-9))

(* Two cells with one pin each at known spots, one net. *)
let two_point_design () =
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:100.0 ~yh:50.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let mk name x y =
    let id = Builder.add_cell b ~name ~master:"X" ~w:2.0 ~h:10.0 ~kind:Types.Movable in
    let p = Builder.add_pin b ~cell:id ~dir:Types.Input ~dx:1.0 ~dy:5.0 () in
    Builder.set_position b id ~x ~y;
    p
  in
  let p0 = mk "a" 0.0 0.0 in
  let p1 = mk "b" 30.0 20.0 in
  ignore (Builder.add_net b [ p0; p1 ]);
  Builder.finish b

let test_hpwl_two_points () =
  let d = two_point_design () in
  (* pin positions (1,5) and (31,25): HPWL = 30 + 20 *)
  check_float "hpwl" 50.0 (Hpwl.total_of_design d)

let test_hpwl_weighted () =
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:100.0 ~yh:50.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let mk name x =
    let id = Builder.add_cell b ~name ~master:"X" ~w:2.0 ~h:10.0 ~kind:Types.Movable in
    let p = Builder.add_pin b ~cell:id ~dir:Types.Input ~dx:0.0 ~dy:0.0 () in
    Builder.set_position b id ~x ~y:0.0;
    p
  in
  let p0 = mk "a" 0.0 and p1 = mk "b" 10.0 in
  ignore (Builder.add_net b ~weight:3.0 [ p0; p1 ]);
  let d = Builder.finish b in
  check_float "weighted hpwl" 30.0 (Hpwl.total_of_design d)

let test_hpwl_degenerate () =
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:100.0 ~yh:50.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let id = Builder.add_cell b ~name:"a" ~master:"X" ~w:2.0 ~h:10.0 ~kind:Types.Movable in
  let p = Builder.add_pin b ~cell:id ~dir:Types.Output () in
  ignore (Builder.add_net b [ p ]);
  let d = Builder.finish b in
  check_float "single-pin net is 0" 0.0 (Hpwl.total_of_design d)

(* ---------------- model bounds ---------------- *)

let bounds_design seed = Tutil.random_design ~cells:10 ~nets:8 seed

let test_lse_upper_bound () =
  List.iter
    (fun seed ->
      let d = bounds_design seed in
      let pins = Pins.build d in
      let cx, cy = Pins.centers_of_design d in
      List.iter
        (fun gamma ->
          let lse = Lse.value pins ~gamma ~cx ~cy in
          let hp = Hpwl.total pins ~cx ~cy in
          if lse < hp -. 1e-6 then Alcotest.failf "LSE %.4f < HPWL %.4f" lse hp;
          (* per net per axis the gap is at most 2 gamma log(max degree) *)
          let max_deg = Pins.max_net_degree pins in
          let nn = float_of_int (Design.num_nets d) in
          let bound = hp +. (2.0 *. nn *. Lse.upper_bound_gap ~gamma ~degree:max_deg *. 2.0) in
          if lse > bound then Alcotest.failf "LSE %.4f above bound %.4f" lse bound)
        [ 10.0; 1.0; 0.1 ])
    [ 1; 2; 3 ]

let test_lse_converges_to_hpwl () =
  let d = bounds_design 4 in
  let pins = Pins.build d in
  let cx, cy = Pins.centers_of_design d in
  let hp = Hpwl.total pins ~cx ~cy in
  let err gamma = abs_float (Lse.value pins ~gamma ~cx ~cy -. hp) in
  Alcotest.(check bool) "monotone in gamma" true (err 0.01 < err 1.0 && err 1.0 < err 100.0)

let test_wa_lower_bound () =
  List.iter
    (fun seed ->
      let d = bounds_design seed in
      let pins = Pins.build d in
      let cx, cy = Pins.centers_of_design d in
      List.iter
        (fun gamma ->
          let wa = Wa.value pins ~gamma ~cx ~cy in
          let hp = Hpwl.total pins ~cx ~cy in
          if wa > hp +. 1e-6 then Alcotest.failf "WA %.4f > HPWL %.4f" wa hp)
        [ 10.0; 1.0; 0.1 ])
    [ 5; 6; 7 ]

let test_wa_converges_to_hpwl () =
  let d = bounds_design 8 in
  let pins = Pins.build d in
  let cx, cy = Pins.centers_of_design d in
  let hp = Hpwl.total pins ~cx ~cy in
  Alcotest.(check bool) "tight at small gamma" true
    (abs_float (Wa.value pins ~gamma:0.01 ~cx ~cy -. hp) < 0.05 *. hp)

let test_wa_tighter_than_lse () =
  (* the WA model's selling point: smaller modelling error than LSE at the
     same gamma *)
  let worse = ref 0 and total = ref 0 in
  List.iter
    (fun seed ->
      let d = bounds_design seed in
      let pins = Pins.build d in
      let cx, cy = Pins.centers_of_design d in
      let hp = Hpwl.total pins ~cx ~cy in
      let gamma = 2.0 in
      let e_lse = abs_float (Lse.value pins ~gamma ~cx ~cy -. hp) in
      let e_wa = abs_float (Wa.value pins ~gamma ~cx ~cy -. hp) in
      incr total;
      if e_wa > e_lse then incr worse)
    [ 11; 12; 13; 14; 15; 16 ];
  Alcotest.(check bool) "WA usually tighter" true (!worse * 2 <= !total)

(* ---------------- gradients ---------------- *)

let test_lse_gradient () =
  List.iter
    (fun seed ->
      let d = bounds_design seed in
      let pins = Pins.build d in
      let err =
        Tutil.gradient_error d ~value_grad:(fun ~cx ~cy ~gx ~gy ->
            Lse.value_grad pins ~gamma:3.0 ~cx ~cy ~gx ~gy)
      in
      if err > 1e-4 then Alcotest.failf "LSE gradient error %.2e" err)
    [ 21; 22; 23 ]

let test_wa_gradient () =
  List.iter
    (fun seed ->
      let d = bounds_design seed in
      let pins = Pins.build d in
      let err =
        Tutil.gradient_error d ~value_grad:(fun ~cx ~cy ~gx ~gy ->
            Wa.value_grad pins ~gamma:3.0 ~cx ~cy ~gx ~gy)
      in
      if err > 1e-4 then Alcotest.failf "WA gradient error %.2e" err)
    [ 24; 25; 26 ]

let test_gradient_translation_invariance () =
  (* moving everything by a constant leaves both models unchanged *)
  let d = bounds_design 31 in
  let pins = Pins.build d in
  let cx, cy = Pins.centers_of_design d in
  let v1 = Lse.value pins ~gamma:2.0 ~cx ~cy in
  let cx' = Array.map (fun x -> x +. 13.0) cx in
  let cy' = Array.map (fun y -> y -. 7.0) cy in
  let v2 = Lse.value pins ~gamma:2.0 ~cx:cx' ~cy:cy' in
  Alcotest.(check (float 1e-6)) "translation invariant" v1 v2

let test_model_dispatch () =
  let d = bounds_design 41 in
  let pins = Pins.build d in
  let cx, cy = Pins.centers_of_design d in
  check_float "lse dispatch" (Lse.value pins ~gamma:1.0 ~cx ~cy)
    (Model.value Model.Lse pins ~gamma:1.0 ~cx ~cy);
  check_float "wa dispatch" (Wa.value pins ~gamma:1.0 ~cx ~cy)
    (Model.value Model.Wa pins ~gamma:1.0 ~cx ~cy);
  Alcotest.(check bool) "kind strings" true
    (Model.kind_of_string "lse" = Some Model.Lse
    && Model.kind_of_string "wa" = Some Model.Wa
    && Model.kind_of_string "x" = None)

let test_numerical_stability_large_coords () =
  (* the max-shift normalisation must survive coordinates ~1e6 *)
  let d = two_point_design () in
  let pins = Pins.build d in
  let cx, cy = Pins.centers_of_design d in
  let cx = Array.map (fun x -> x +. 1e6) cx in
  let lse = Lse.value pins ~gamma:0.5 ~cx ~cy in
  let wa = Wa.value pins ~gamma:0.5 ~cx ~cy in
  Alcotest.(check bool) "lse finite" true (Float.is_finite lse);
  Alcotest.(check bool) "wa finite" true (Float.is_finite wa)

(* Allocation gate, run under the default (dev, [-opaque]) build: the
   smooth-wirelength and HPWL kernels must not box a float per net or pin.
   Counts are the calling domain's ([Gc.minor_words] is per domain in
   OCaml 5); the 2-worker [Par_grad] runs half its nets on the helper
   domain, and the calling domain's half is what is gated (on a one-core
   host the pool runs serially and the whole kernel is gated). *)
let test_kernels_allocation_free () =
  let d = Lazy.force Tutil.xl10k in
  let pins = Pins.build d in
  let cx, cy = Pins.centers_of_design d in
  let n = Design.num_cells d in
  let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
  let gamma = 5.0 in
  let gate name f = Tutil.check_kernel_alloc name (fun () -> ignore (f ())) in
  gate "Lse.value" (fun () -> Lse.value pins ~gamma ~cx ~cy);
  gate "Lse.value_grad" (fun () -> Lse.value_grad pins ~gamma ~cx ~cy ~gx ~gy);
  gate "Wa.value" (fun () -> Wa.value pins ~gamma ~cx ~cy);
  gate "Wa.value_grad" (fun () -> Wa.value_grad pins ~gamma ~cx ~cy ~gx ~gy);
  gate "Hpwl.total" (fun () -> Hpwl.total pins ~cx ~cy);
  Dpp_par.Pool.with_pool ~nworkers:2 (fun pool ->
      let pg = Dpp_wirelen.Par_grad.create pool pins in
      List.iter
        (fun kind ->
          gate
            ("Par_grad.value_grad " ^ Model.kind_to_string kind)
            (fun () -> Dpp_wirelen.Par_grad.value_grad pg pool kind ~gamma ~cx ~cy ~gx ~gy))
        [ Model.Lse; Model.Wa ])

let suite =
  [
    Alcotest.test_case "hpwl two points" `Quick test_hpwl_two_points;
    Alcotest.test_case "hpwl weighted" `Quick test_hpwl_weighted;
    Alcotest.test_case "hpwl degenerate" `Quick test_hpwl_degenerate;
    Alcotest.test_case "lse upper bound" `Quick test_lse_upper_bound;
    Alcotest.test_case "lse gamma convergence" `Quick test_lse_converges_to_hpwl;
    Alcotest.test_case "wa lower bound" `Quick test_wa_lower_bound;
    Alcotest.test_case "wa gamma convergence" `Quick test_wa_converges_to_hpwl;
    Alcotest.test_case "wa tighter than lse" `Quick test_wa_tighter_than_lse;
    Alcotest.test_case "lse gradient fd" `Quick test_lse_gradient;
    Alcotest.test_case "wa gradient fd" `Quick test_wa_gradient;
    Alcotest.test_case "translation invariance" `Quick test_gradient_translation_invariance;
    Alcotest.test_case "model dispatch" `Quick test_model_dispatch;
    Alcotest.test_case "stability at large coords" `Quick test_numerical_stability_large_coords;
    Alcotest.test_case "kernels allocation-free at xl10k" `Quick test_kernels_allocation_free;
  ]
