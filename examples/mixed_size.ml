(* Mixed-size placement: embedded RAM macros among datapath and glue.

   Movable multi-row macros ride the same rigid-macro machinery as the
   datapath arrays: one placement variable each in GP, snapped to the row
   grid, obstacles to the legalizer.  This example places a design with
   two RAMs and plots it.

     dune exec examples/mixed_size.exe                                     *)

module Pins = Dpp_wirelen.Pins

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning);
  let spec =
    {
      Dpp_gen.Compose.sp_name = "mixed";
      sp_seed = 33;
      sp_blocks =
        [
          Dpp_gen.Compose.Ram (36, 8, 16);
          Ram (28, 6, 8);
          Regbank 16;
          Regbank 16;
          Adder 16;
          Regbank 16;
        ];
      sp_random_cells = 700;
      sp_utilization = 0.6;
    }
  in
  let design = Dpp_gen.Compose.build spec in
  let macros = Dpp_structure.Dgroup.movable_macros (Dpp_netlist.Soa.of_design design) in
  Format.printf "design has %d movable macros and %d labelled datapath groups@."
    (List.length macros)
    (List.length design.Dpp_netlist.Design.groups);
  let base, sa = Dpp_core.Flow.run_both design Dpp_core.Config.structure_aware in
  Format.printf "baseline HPWL %.0f | structure-aware HPWL %.0f (ratio %.3f)@."
    base.Dpp_core.Flow.hpwl_final sa.Dpp_core.Flow.hpwl_final
    (sa.Dpp_core.Flow.hpwl_final /. base.Dpp_core.Flow.hpwl_final);
  (* confirm legality with the audit, including the multi-row macros *)
  List.iter
    (fun ((r : Dpp_core.Flow.result), tag) ->
      let cx, cy = Pins.centers_of_design r.Dpp_core.Flow.design in
      let v = Dpp_place.Legality.check r.Dpp_core.Flow.design ~cx ~cy in
      Format.printf "%s: %d legality violations@." tag (List.length v))
    [ (base, "baseline"); (sa, "structure-aware") ];
  let path = Filename.concat (Filename.get_temp_dir_name ()) "dpp_mixed.svg" in
  let placed =
    Dpp_netlist.Design.with_groups sa.Dpp_core.Flow.design sa.Dpp_core.Flow.groups_used
  in
  Dpp_viz.Plot.placement ~title:"mixed-size structure-aware" placed ~path;
  Format.printf "plot: %s@." path
