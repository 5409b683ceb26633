(* Metric tables and the small statistics the report needs.

   The names, units and directions here are the ones BENCHMARK.json declares;
   the test suite checks that the two agree. *)

type better = Lower | Higher

type spec = { name : string; unit_ : string; better : better }

let mk better (name, unit_) = { name; unit_; better }

(* End-to-end metrics: what a placement user sees, printed with tracing
   off.  Every workload prints every one of them (see README.md for the
   per-workload definition). *)
let end_to_end =
  List.map (mk Lower)
    [
      "setup_s", "s";
      "flow_s", "s";
      "peak_rss_mb", "MB";
      "hpwl", "dbu";
      "gp_overflow", "ratio";
      "rudy_ace", "ratio";
      "job_p50_s", "s";
      "job_p90_s", "s";
    ]
  @ List.map (mk Higher) [ "success_rate", "ratio"; "jobs_per_s", "1/s" ]

(* Per-layer metrics, printed by the traced run of every workload. *)
let per_layer =
  List.map (mk Lower)
    [
      "gp.stage_s", "s";
      "gp.minor_mwords", "Mwords";
      "gp.major_mwords", "Mwords";
      "gp.rounds", "count";
      "gp.minor_mwords_per_round", "Mwords";
      "gp.level_s", "s";
      "gp.refine_s", "s";
      "coarsen.build_s", "s";
      "wirelen.wa_grad_ms", "ms";
      "wirelen.lse_grad_ms", "ms";
      "wirelen.hpwl_ms", "ms";
      "wirelen.netbox_build_ms", "ms";
      "density.bell_grad_ms", "ms";
      "congest.rudy_ms", "ms";
      "extract.stage_s", "s";
      "extract.slicer_s", "s";
      "extract.score_s", "s";
      "structure.groups_dropped", "count";
      "init.stage_s", "s";
      "init.hwm_delta_mb", "MB";
      "netlist.soa_derive_s", "s";
      "netlist.validate_s", "s";
      "snap.stage_s", "s";
      "legal.stage_s", "s";
      "legal.hpwl_ratio", "ratio";
      "detail.stage_s", "s";
      "flip.stage_s", "s";
      "metrics.stage_s", "s";
      "serve.run_p50_s", "s";
      "serve.wait_p50_s", "s";
      "serve.cache_evictions", "count";
      "serve.busy", "count";
      "eco.run_p50_s", "s";
      "eco.dirty_frac_p50", "ratio";
      "eco.fallbacks", "count";
      "trace.overhead_pct", "%";
    ]
  @ List.map (mk Higher)
      [
        "gp.ml_levels", "count";
        "extract.groups_found", "count";
        "extract.group_match_rate", "ratio";
        "structure.groups_used", "count";
        "detail.hpwl_gain_pct", "%";
        "serve.cache_hit_rate", "ratio";
      ]

let better_string = function Lower -> "lower" | Higher -> "higher"

(* ----- statistics ----- *)

let median = function
  | [] -> 0.0
  | l -> Dpp_util.Statx.median (Array.of_list l)

(* p90 by linear interpolation; the serve workload completes ~50 jobs per
   run, which leaves about five samples beyond it *)
let p90 = function [] -> 0.0 | l -> Dpp_util.Statx.quantile (Array.of_list l) 0.9

let geomean = function [] -> 0.0 | l -> Dpp_util.Statx.geomean (Array.of_list l)

(* ----- the result line ----- *)

(* every digit of a float, as the result line must carry it *)
let num v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let result_line ~attempted ~failed (values : (spec * float) list) =
  let metric (s, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" s.name (num v) s.unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) attempted failed
    (String.concat ", " (List.map metric values))

(* Pick [specs] out of a name -> value table, failing loudly on a gap so a
   metric can never go missing from the report silently. *)
let select specs table =
  List.map
    (fun s ->
      match List.assoc_opt s.name table with
      | Some v -> s, v
      | None -> failwith ("perfbench: no value for metric " ^ s.name))
    specs
