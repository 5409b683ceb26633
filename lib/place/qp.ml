module Soa = Dpp_netlist.Soa
module Rect = Dpp_geom.Rect
module Csr = Dpp_numeric.Csr
module Pcg = Dpp_numeric.Pcg
module Rng = Dpp_util.Rng
module Pool = Dpp_par.Pool

type result = {
  cx : float array;
  cy : float array;
  iterations_x : int;
  iterations_y : int;
  converged_x : bool;
  converged_y : bool;
  residual_x : float;
  residual_y : float;
}

let max_iter = 600

(* The two axes share the read-only matrix and are independent solves, so
   running them on different workers cannot change a bit of either. *)
let solve_axes pool a bx by =
  let solve b = Pcg.solve ~max_iter ~tol:1e-7 a b in
  if Pool.nworkers pool < 2 then
    let x = solve bx in
    x, solve by
  else begin
    let x = ref None and y = ref None in
    Pool.run pool (fun w -> if w = 0 then x := Some (solve bx) else if w = 1 then y := Some (solve by));
    Option.get !x, Option.get !y
  end

let result cx cy (st_x : Pcg.stats) (st_y : Pcg.stats) =
  {
    cx;
    cy;
    iterations_x = st_x.iterations;
    iterations_y = st_y.iterations;
    converged_x = st_x.converged;
    converged_y = st_y.converged;
    residual_x = st_x.residual;
    residual_y = st_y.residual;
  }

let run ?(seed = 1) ?(pool = Pool.serial) (s : Soa.t) =
  let nc = Soa.num_cells s in
  let movable = Soa.movable_ids s in
  let m = Array.length movable in
  let var_of = Array.make nc (-1) in
  Array.iteri (fun v i -> var_of.(i) <- v) movable;
  let cx = Array.init nc (Soa.cell_center_x s) in
  let cy = Array.init nc (Soa.cell_center_y s) in
  if m > 0 then begin
    let trip = Csr.Triplets.create ~rows:m ~cols:m in
    let bx = Array.make m 0.0 and by = Array.make m 0.0 in
    let add_edge u v w =
      let vu = var_of.(u) and vv = var_of.(v) in
      match vu >= 0, vv >= 0 with
      | true, true ->
        Csr.Triplets.add trip vu vu w;
        Csr.Triplets.add trip vv vv w;
        Csr.Triplets.add trip vu vv (-.w);
        Csr.Triplets.add trip vv vu (-.w)
      | true, false ->
        Csr.Triplets.add trip vu vu w;
        bx.(vu) <- bx.(vu) +. (w *. cx.(v));
        by.(vu) <- by.(vu) +. (w *. cy.(v))
      | false, true ->
        Csr.Triplets.add trip vv vv w;
        bx.(vv) <- bx.(vv) +. (w *. cx.(u));
        by.(vv) <- by.(vv) +. (w *. cy.(u))
      | false, false -> ()
    in
    for n = 0 to Soa.num_nets s - 1 do
      let cells = Soa.cells_of_net s n in
      let k = Array.length cells in
      if k >= 2 then begin
        let weight = s.Soa.net_weight.(n) in
        if k <= 4 then begin
          let w = weight /. float_of_int (k - 1) in
          for a = 0 to k - 1 do
            for b = a + 1 to k - 1 do
              add_edge cells.(a) cells.(b) w
            done
          done
        end
        else begin
          let w = 2.0 *. weight /. float_of_int k in
          for a = 0 to k - 1 do
            add_edge cells.(a) cells.((a + 1) mod k) w
          done
        end
      end
    done;
    (* weak center anchor for positive definiteness *)
    let anchor = 1e-4 in
    let die = s.Soa.die in
    let ctr_x = Rect.center_x die and ctr_y = Rect.center_y die in
    for v = 0 to m - 1 do
      Csr.Triplets.add trip v v anchor;
      bx.(v) <- bx.(v) +. (anchor *. ctr_x);
      by.(v) <- by.(v) +. (anchor *. ctr_y)
    done;
    let a = Csr.Triplets.to_csr trip in
    let (sol_x, st_x), (sol_y, st_y) = solve_axes pool a bx by in
    (* scatter, with deterministic one-site jitter to break ties *)
    let rng = Rng.create seed in
    let site = s.Soa.site_width in
    Array.iteri
      (fun v i ->
        let jx = Rng.float_in rng (-.site) site in
        let jy = Rng.float_in rng (-.site) site in
        let hw = s.Soa.width.(i) /. 2.0 and hh = s.Soa.height.(i) /. 2.0 in
        cx.(i) <- max (die.Rect.xl +. hw) (min (die.Rect.xh -. hw) (sol_x.(v) +. jx));
        cy.(i) <- max (die.Rect.yl +. hh) (min (die.Rect.yh -. hh) (sol_y.(v) +. jy)))
      movable;
    result cx cy st_x st_y
  end
  else
    let idle = { Pcg.iterations = 0; residual = 0.0; converged = true } in
    result cx cy idle idle
