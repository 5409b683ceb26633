(* Plot what the flows do: side-by-side SVG of baseline vs structure-aware
   placements (datapath groups colored, glue gray), plus a congestion
   heat underlay on the single-design plot.

     dune exec examples/visualize.exe
     # then open /tmp/dpp_compare.svg and /tmp/dpp_congestion.svg          *)

module Pins = Dpp_wirelen.Pins

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning);
  let spec =
    match Dpp_gen.Presets.by_name "dp_add32" with
    | Some s -> s
    | None -> failwith "preset missing"
  in
  let design = Dpp_gen.Compose.build spec in
  let base, sa = Dpp_core.Flow.run_both design Dpp_core.Config.structure_aware in
  (* color the placements by the groups the structure-aware flow used *)
  let base_d =
    Dpp_netlist.Design.with_groups base.Dpp_core.Flow.design sa.Dpp_core.Flow.groups_used
  in
  let sa_d =
    Dpp_netlist.Design.with_groups sa.Dpp_core.Flow.design sa.Dpp_core.Flow.groups_used
  in
  let cmp = Filename.concat (Filename.get_temp_dir_name ()) "dpp_compare.svg" in
  Dpp_viz.Plot.compare_placements ~left:base_d ~right:sa_d
    ~left_title:
      (Printf.sprintf "baseline  HPWL %.0f" base.Dpp_core.Flow.hpwl_final)
    ~right_title:
      (Printf.sprintf "structure-aware  HPWL %.0f" sa.Dpp_core.Flow.hpwl_final)
    ~path:cmp ();
  Format.printf "side-by-side comparison: %s@." cmp;
  (* congestion underlay on the baseline *)
  let cx, cy = Pins.centers_of_design base_d in
  let rudy = Dpp_congest.Rudy.of_pins (Pins.build base_d) ~cx ~cy in
  let st = Dpp_congest.Rudy.stats rudy in
  Format.printf "baseline congestion: max %.2f p95 %.2f (%.1f%% bins over)@."
    st.Dpp_congest.Rudy.max_ratio st.Dpp_congest.Rudy.p95_ratio
    (100.0 *. st.Dpp_congest.Rudy.overflowed_bins);
  let hot = Filename.concat (Filename.get_temp_dir_name ()) "dpp_congestion.svg" in
  Dpp_viz.Plot.placement ~congestion:rudy ~title:"baseline + RUDY heat" base_d ~path:hot;
  Format.printf "congestion plot: %s@." hot
