(* End-to-end tests of the congestion-driven (routability) placement loop
   on the rt_channel stress preset: steering must buy a real congestion
   reduction at a bounded wirelength cost, the whole steered trajectory
   must be bit-identical at every worker count, and the inflation ledger
   must respect its budget. *)

module Config = Dpp_core.Config
module Flow = Dpp_core.Flow
module Gp = Dpp_place.Gp
module Qp = Dpp_place.Qp
module Soa = Dpp_netlist.Soa
module Rudy = Dpp_congest.Rudy
module Design = Dpp_netlist.Design
module Bell = Dpp_density.Bell
module Grid = Dpp_density.Grid
module Pins = Dpp_wirelen.Pins
module Check = Dpp_check

let channel = Dpp_gen.Channel.build ()

let flow ?(jobs = 1) ~routability () =
  let cfg =
    {
      Config.baseline with
      Config.multilevel = Config.Ml_off;
      jobs;
      routability;
    }
  in
  Flow.run ~check:true channel cfg

let test_congestion_improves () =
  let off = flow ~routability:false () in
  let on = flow ~routability:true () in
  let ace r = r.Flow.congestion.Rudy.ace_ratio in
  Alcotest.(check bool) "steering happened" true (on.Flow.rt_trace <> []);
  Alcotest.(check bool) "blind run keeps an empty ledger" true (off.Flow.rt_trace = []);
  (* the bench gate: >= 20% ACE reduction at <= 2% HPWL cost *)
  if not (ace on <= 0.8 *. ace off) then
    Alcotest.failf "ACE %.3f not 20%% under blind %.3f" (ace on) (ace off);
  if not (on.Flow.hpwl_final <= 1.02 *. off.Flow.hpwl_final) then
    Alcotest.failf "HPWL %.0f above 102%% of blind %.0f" on.Flow.hpwl_final
      off.Flow.hpwl_final

let test_jobs_determinism () =
  (* the full steered trajectory — coordinates and the rt ledger — must
     not depend on the worker count *)
  let r1 = flow ~jobs:1 ~routability:true () in
  let r4 = flow ~jobs:4 ~routability:true () in
  let coords r = r.Flow.design.Design.x, r.Flow.design.Design.y in
  let x1, y1 = coords r1 and x4, y4 = coords r4 in
  Array.iteri
    (fun i v ->
      if not (Float.equal v x4.(i) && Float.equal y1.(i) y4.(i)) then
        Alcotest.failf "cell %d placement depends on the worker count" i)
    x1;
  Alcotest.(check int) "ledger length" (List.length r1.Flow.rt_trace)
    (List.length r4.Flow.rt_trace);
  List.iter2
    (fun (a : Gp.rt_round) (b : Gp.rt_round) ->
      if
        not
          (a.Gp.rt_round = b.Gp.rt_round
          && Float.equal a.Gp.rt_max b.Gp.rt_max
          && Float.equal a.Gp.rt_ace b.Gp.rt_ace
          && Float.equal a.Gp.rt_overflowed b.Gp.rt_overflowed
          && Float.equal a.Gp.rt_best b.Gp.rt_best
          && a.Gp.rt_inflated = b.Gp.rt_inflated
          && Float.equal a.Gp.rt_virtual b.Gp.rt_virtual
          && Float.equal a.Gp.rt_budget b.Gp.rt_budget)
      then Alcotest.failf "rt ledger round %d depends on the worker count" a.Gp.rt_round)
    r1.Flow.rt_trace r4.Flow.rt_trace;
  match Check.rt_ledger r1.Flow.rt_trace with
  | [] -> ()
  | v :: _ -> Alcotest.failf "ledger oracle: %s" (Check.Violation.to_string v)

let gp_cfg =
  {
    Gp.default_config with
    Gp.rounds = 12;
    inner_iters = 30;
    routability = true;
    rt_interval = 2;
  }

let test_inflation_budget_clamped () =
  (* an absurdly low overflow threshold marks most bins congested, so the
     raw inflation demand far exceeds the budget; the uniform scale-back
     must keep every ledger entry at or under it *)
  let d = channel in
  let qp = Qp.run ~seed:1 (Soa.of_design d) in
  let cfg = { gp_cfg with Gp.rt_overflow = 0.2; rt_max_inflate = 0.02 } in
  let r = Gp.run ~pins:(Pins.build d) cfg ~cx:qp.Qp.cx ~cy:qp.Qp.cy in
  Alcotest.(check bool) "ledger non-empty" true (r.Gp.rt_trace <> []);
  let saw_inflation = ref false in
  List.iter
    (fun (e : Gp.rt_round) ->
      if e.Gp.rt_inflated > 0 then saw_inflation := true;
      if e.Gp.rt_virtual > e.Gp.rt_budget +. 1e-6 then
        Alcotest.failf "round %d: virtual area %.1f above budget %.1f" e.Gp.rt_round
          e.Gp.rt_virtual e.Gp.rt_budget)
    r.Gp.rt_trace;
  Alcotest.(check bool) "inflation actually triggered" true !saw_inflation;
  (match List.rev r.Gp.rt_trace with
  | last :: _ ->
    Alcotest.(check int) "ledger closed: no inflated cells" 0 last.Gp.rt_inflated;
    Alcotest.(check (float 0.0)) "ledger closed: no virtual area" 0.0 last.Gp.rt_virtual
  | [] -> ());
  match Check.rt_ledger r.Gp.rt_trace with
  | [] -> ()
  | v :: _ -> Alcotest.failf "ledger oracle: %s" (Check.Violation.to_string v)

let test_bell_inflation_roundtrip () =
  let d = channel in
  let soa = Soa.of_design d in
  let nx, ny = Grid.dims_of_soa soa in
  let grid = Grid.of_soa soa ~nx ~ny in
  let bell = Bell.of_soa soa ~grid ~target_density:0.9 in
  let cx, cy = Pins.centers_of_design d in
  let v0 = Bell.value bell ~cx ~cy in
  let factors = Array.init (Design.num_cells d) (fun i -> 1.0 +. (0.003 *. float_of_int i)) in
  Bell.set_inflation bell factors;
  let v_inflated = Bell.value bell ~cx ~cy in
  Alcotest.(check bool) "inflation changes the potential" true
    (not (Float.equal v0 v_inflated));
  Bell.reset_inflation bell;
  let v1 = Bell.value bell ~cx ~cy in
  if not (Float.equal v0 v1) then
    Alcotest.failf "reset_inflation not bit-exact: %.17g vs %.17g" v1 v0;
  Bell.set_inflation bell (Array.make (Design.num_cells d) 1.0);
  let v2 = Bell.value bell ~cx ~cy in
  if not (Float.equal v0 v2) then
    Alcotest.failf "all-ones inflation not bit-exact: %.17g vs %.17g" v2 v0

let test_rt_disabled_is_clean () =
  (* with routability off the rt machinery must be completely inert:
     empty ledger, and the ledger oracle accepts the empty list *)
  let d = channel in
  let qp = Qp.run ~seed:1 (Soa.of_design d) in
  let r =
    Gp.run ~pins:(Pins.build d) { gp_cfg with Gp.routability = false } ~cx:qp.Qp.cx
      ~cy:qp.Qp.cy
  in
  Alcotest.(check bool) "no ledger" true (r.Gp.rt_trace = []);
  Alcotest.(check int) "oracle accepts empty ledger" 0
    (List.length (Check.rt_ledger r.Gp.rt_trace))

let suite =
  [
    Alcotest.test_case "congestion improves at bounded hpwl" `Slow test_congestion_improves;
    Alcotest.test_case "steered trajectory jobs-independent" `Slow test_jobs_determinism;
    Alcotest.test_case "inflation budget clamped" `Quick test_inflation_budget_clamped;
    Alcotest.test_case "bell inflation round-trip" `Quick test_bell_inflation_roundtrip;
    Alcotest.test_case "routability off is inert" `Quick test_rt_disabled_is_clean;
  ]
