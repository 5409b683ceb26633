(* Tests of the benchmark itself, on the small dp_add32 preset: every
   declared metric is printed with its unit, and a corrupted placement is
   counted as a failure instead of passing silently. *)

module Json = Dpp_report.Json
module Flow = Dpp_core.Flow
module Ctx = Dpp_core.Ctx
open Perfbench

let field k j =
  match Json.member k j with Some v -> v | None -> Alcotest.failf "missing key %s" k

let benchmark_json () =
  let ic = open_in "../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Json.parse s

let declared key =
  List.map
    (fun m -> Json.to_string (field "name" m), Json.to_string (field "unit" m), Json.to_string (field "better" m))
    (Json.to_list (field key (benchmark_json ())))

let table specs =
  List.map (fun (s : Metrics.spec) -> s.name, s.unit_, Metrics.better_string s.better) specs

let triple = Alcotest.(list (triple string string string))

let test_declared () =
  Alcotest.check triple "end_to_end" (table Metrics.end_to_end) (declared "end_to_end");
  Alcotest.check triple "per_layer" (table Metrics.per_layer) (declared "per_layer");
  Alcotest.(check (list string))
    "workloads" Bench.workloads
    (List.map (fun w -> Json.to_string (field "name" w)) (Json.to_list (field "workloads" (benchmark_json ()))))

(* Run the smoke workload and return the printed lines and the parsed
   result (the last line). *)
let smoke ?runner ~trace () =
  let r = Bench.run ?runner ~workload:"smoke" ~seed:1 ~seconds:0.1 ~trace () in
  let lines = Bench.render ~trace r in
  lines, Json.parse (List.nth lines (List.length lines - 1))

let check_printed ~trace specs () =
  let lines, result = smoke ~trace () in
  let metrics = field "metrics" result in
  Alcotest.(check int) "no extra metrics" (List.length specs)
    (match metrics with Json.Obj kvs -> List.length kvs | _ -> -1);
  Alcotest.(check bool) "attempted" true (Json.to_float (field "attempted" result) >= 1.0);
  List.iter
    (fun (s : Metrics.spec) ->
      let m = field s.name metrics in
      Alcotest.(check string) (s.name ^ " unit") s.unit_ (Json.to_string (field "unit" m));
      Alcotest.(check bool) (s.name ^ " finite") true (Float.is_finite (Json.to_float (field "value" m)));
      let shown =
        List.exists
          (fun l ->
            match String.split_on_char ' ' (String.trim l) |> List.filter (( <> ) "") with
            | [ n; _; u ] -> n = s.name && u = s.unit_
            | _ -> false)
          lines
      in
      Alcotest.(check bool) (s.name ^ " printed with its unit") true shown)
    specs

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A stage after the flow that drops one movable cell onto another of the
   same width, so the two overlap exactly and nothing else breaks. *)
let overlap_two_cells =
  {
    Flow.name = "corrupt";
    run =
      (fun (ctx : Ctx.t) ->
        let d = ctx.Ctx.design in
        let width i = d.Dpp_netlist.Design.cells.(i).Dpp_netlist.Types.c_width in
        let movable = Array.to_list (Dpp_netlist.Design.movable_ids d) in
        let a = List.hd movable in
        let b = List.find (fun i -> i <> a && width i = width a) movable in
        let cx = Array.copy ctx.Ctx.cx and cy = Array.copy ctx.Ctx.cy in
        cx.(b) <- cx.(a);
        cy.(b) <- cy.(a);
        Ctx.set_coords ctx cx cy;
        ctx);
  }

let test_corrupted () =
  let runner ~workload ~seed ~traced =
    let t = Option.get (Flow_job.target ~workload ~seed) in
    Flow_job.run ~traced { t with Flow_job.stages = t.Flow_job.stages @ [ overlap_two_cells ] }
  in
  let lines, result = smoke ~runner ~trace:false () in
  let failed = Json.to_float (field "failed" result) in
  let success = Json.to_float (field "value" (field "success_rate" (field "metrics" result))) in
  Alcotest.(check bool) "failed counted" true (failed >= 1.0);
  Alcotest.(check bool) "success rate below 1" true (success < 1.0);
  Alcotest.(check bool) "not correct" false (Json.to_bool (field "correct" result));
  Alcotest.(check bool) "overlap reported" true
    (List.exists (fun l -> contains l "overlaps") lines)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "BENCHMARK.json matches the metric tables" `Quick test_declared;
          Alcotest.test_case "end-to-end metrics printed with units" `Quick
            (check_printed ~trace:false Metrics.end_to_end);
          Alcotest.test_case "per-layer metrics printed with units" `Quick
            (check_printed ~trace:true Metrics.per_layer);
          Alcotest.test_case "overlapping cells raise the error rate" `Quick test_corrupted;
        ] );
    ]
