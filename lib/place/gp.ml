module Soa = Dpp_netlist.Soa
module Rect = Dpp_geom.Rect
module Pins = Dpp_wirelen.Pins
module Model = Dpp_wirelen.Model
module Par_grad = Dpp_wirelen.Par_grad
module Hpwl = Dpp_wirelen.Hpwl
module Grid = Dpp_density.Grid
module Bell = Dpp_density.Bell
module Overflow = Dpp_density.Overflow
module Nlcg = Dpp_numeric.Nlcg
module Dgroup = Dpp_structure.Dgroup
module Alignment = Dpp_structure.Alignment
module Rudy = Dpp_congest.Rudy

type config = {
  model : Model.kind;
  target_density : float;
  gamma_frac : float;
  gamma_shrink : float;
  lambda_mult : float;
  rounds : int;
  inner_iters : int;
  overflow_target : float;
  grid : (int * int) option;
  beta : float;
  groups : Dgroup.t list;  (** soft groups: alignment penalty *)
  rigid_groups : Dgroup.t list;  (** rigid groups: one macro variable each *)
  pool : Dpp_par.Pool.t;  (** worker pool for the cost kernels *)
  routability : bool;  (** congestion-driven placement (RUDY feedback) *)
  rt_interval : int;  (** rounds between RUDY evaluations *)
  rt_overflow : float;  (** bin demand/supply ratio treated as congested *)
  rt_max_inflate : float;  (** total virtual-area budget, as a fraction of movable area *)
}

let default_config =
  {
    model = Model.Lse;
    target_density = 0.9;
    gamma_frac = 0.5;
    gamma_shrink = 0.8;
    lambda_mult = 2.0;
    rounds = 30;
    inner_iters = 60;
    overflow_target = 0.08;
    grid = None;
    beta = 0.0;
    groups = [];
    rigid_groups = [];
    pool = Dpp_par.Pool.serial;
    routability = false;
    rt_interval = 3;
    rt_overflow = 1.0;
    rt_max_inflate = 0.15;
  }

type round_info = {
  round : int;
  hpwl : float;
  overflow : float;
  gamma : float;
  lambda : float;
  objective : float;
  align_error : float;
}

type rt_round = {
  rt_round : int;
  rt_max : float;
  rt_ace : float;
  rt_overflowed : float;
  rt_best : float;
  rt_inflated : int;
  rt_virtual : float;
  rt_budget : float;
}

type stop_reason = Target_reached | Stalled | Round_cap

let stop_reason_to_string = function
  | Target_reached -> "target_reached"
  | Stalled -> "stalled"
  | Round_cap -> "round_cap"

type result = {
  cx : float array;
  cy : float array;
  trace : round_info list;
  final_overflow : float;
  final_hpwl : float;
  rt_trace : rt_round list;
  stop : stop_reason;
}

let grad_l1 g = Array.fold_left (fun acc v -> acc +. abs_float v) 0.0 g

let run ?arena ?on_round ?(frozen = fun _ -> false) ?(extra_obstacles = []) ~(pins : Pins.t) cfg
    ~cx ~cy =
  let soa = pins.Pins.soa in
  let die = soa.Soa.die in
  let nc = Soa.num_cells soa in
  let movable_ids = Array.to_list (Soa.movable_ids soa) in
  (* Arena-backed working buffers: [afloats]/[aints] are zero-filled
     drop-ins for [Array.make], [afloats_raw] is for buffers that are
     fully overwritten before any read (a recycled buffer may alias this
     run's own inputs, so those must not be pre-zeroed). *)
  let afloats key n =
    match arena with Some a -> Dpp_util.Arena.floats a key n | None -> Array.make n 0.0
  in
  let afloats_raw key n =
    match arena with Some a -> Dpp_util.Arena.floats_raw a key n | None -> Array.make n 0.0
  in
  let aints key n =
    match arena with Some a -> Dpp_util.Arena.ints a key n | None -> Array.make n 0
  in
  (* rigid-group membership *)
  let rigid = Array.of_list cfg.rigid_groups in
  let ng = Array.length rigid in
  let member_of = aints "gp.member_of" nc in
  Array.fill member_of 0 nc (-1);
  Array.iteri
    (fun j (dg : Dgroup.t) -> Array.iter (fun c -> member_of.(c) <- j) dg.Dgroup.cells)
    rigid;
  (* free movables: not frozen, not in a rigid group *)
  let movable_free =
    Array.of_list (List.filter (fun i -> (not (frozen i)) && member_of.(i) < 0) movable_ids)
  in
  let m = Array.length movable_free in
  let nvar = m + ng in
  let nx, ny = match cfg.grid with Some (nx, ny) -> nx, ny | None -> Grid.dims_of_soa soa in
  let grid = Grid.of_soa ~extra_obstacles soa ~nx ~ny in
  (* An unreachable density target makes lambda escalate until wirelength
     is destroyed: clamp the target to the actual utilization plus slack.
     Rigid-group members still spread (they move with their macro), so
     they count toward the load. *)
  let total_cap = Grid.total_capacity grid in
  let load_area =
    List.fold_left
      (fun acc i -> if frozen i then acc else acc +. (soa.Soa.width.(i) *. soa.Soa.height.(i)))
      0.0 movable_ids
  in
  let util_eff = if total_cap > 0.0 then load_area /. total_cap else 1.0 in
  let target_density = min 1.0 (max cfg.target_density (util_eff +. 0.05)) in
  let bell = Bell.of_soa ~frozen soa ~grid ~target_density in
  (* One kernel path: wirelength goes through Par_grad (bit-identical to
     the serial kernels) and density through the chunk-merged Bell
     kernels (bit-stable across worker counts), at every pool size —
     {!Dpp_par.Pool.serial} included — so the trajectory never depends on
     the worker count. *)
  let pool = cfg.pool in
  let par = Par_grad.create pool pins in
  let bell_par = Bell.par_create bell in
  let model_value ~gamma ~cx ~cy = Par_grad.value par pool cfg.model ~gamma ~cx ~cy in
  let model_value_grad ~gamma ~cx ~cy ~gx ~gy =
    Par_grad.value_grad par pool cfg.model ~gamma ~cx ~cy ~gx ~gy
  in
  let bell_value ~cx ~cy = Bell.par_value bell_par pool ~cx ~cy in
  let bell_value_grad ~cx ~cy ~gx ~gy = Bell.par_value_grad bell_par pool ~cx ~cy ~gx ~gy in
  (* ----- routability state (RUDY feedback) -----

     Every [rt_interval] rounds the RUDY map is evaluated over the current
     coordinates, then (a) cells sitting in bins whose demand/supply ratio
     exceeds [rt_overflow] get their bell normaliser scaled up — virtual
     area only the density force sees — under a total budget of
     [rt_max_inflate * movable area], deflating again once their bin
     recovers; and (b) the per-bin excess field becomes a congestion
     penalty [mu * sum_i area_i * C(x_i, y_i)] with [C] the bilinear
     interpolation of the excess over bin centers, held fixed until the
     next evaluation.  Every step below is either serial in ascending cell
     order or routed through the pooled chunk-merged kernels, so the
     trajectory stays independent of the worker count. *)
  let rt_on = cfg.routability && cfg.rt_interval > 0 in
  let rt_cells =
    if not rt_on then [||]
    else
      Array.of_list (List.filter (fun i -> not (frozen i)) movable_ids)
  in
  let inflate =
    if rt_on then begin
      let a = afloats_raw "gp.inflate" nc in
      Array.fill a 0 nc 1.0;
      a
    end
    else [||]
  in
  let rt_budget = cfg.rt_max_inflate *. load_area in
  let rt_cell_max = 2.0 in
  let gxc = afloats "gp.gxc" nc and gyc = afloats "gp.gyc" nc in
  let mu = ref 0.0 in
  let rt_field : (Rudy.t * float array) option ref = ref None in
  let rt_trace = ref [] in
  let rt_best = ref infinity in
  (* bilinear sample of the excess field at (x, y): value and gradient.
     Outside the bin-center lattice the field is extended constant, so the
     gradient vanishes there. *)
  let congest_sample (r : Rudy.t) p x y =
    let fx = ((x -. die.Rect.xl) /. r.Rudy.bin_w) -. 0.5 in
    let fy = ((y -. die.Rect.yl) /. r.Rudy.bin_h) -. 0.5 in
    let ux = max 0.0 (min (float_of_int (r.Rudy.nx - 1)) fx) in
    let uy = max 0.0 (min (float_of_int (r.Rudy.ny - 1)) fy) in
    let ix = min (max 0 (r.Rudy.nx - 2)) (int_of_float ux) in
    let iy = min (max 0 (r.Rudy.ny - 2)) (int_of_float uy) in
    if r.Rudy.nx < 2 || r.Rudy.ny < 2 then p.((iy * r.Rudy.nx) + ix), 0.0, 0.0
    else begin
      let tx = ux -. float_of_int ix and ty = uy -. float_of_int iy in
      let b = (iy * r.Rudy.nx) + ix in
      let p00 = p.(b) and p10 = p.(b + 1) in
      let p01 = p.(b + r.Rudy.nx) and p11 = p.(b + r.Rudy.nx + 1) in
      let v =
        ((1.0 -. tx) *. (1.0 -. ty) *. p00)
        +. (tx *. (1.0 -. ty) *. p10)
        +. ((1.0 -. tx) *. ty *. p01)
        +. (tx *. ty *. p11)
      in
      let dx =
        if Float.equal ux fx then
          (((1.0 -. ty) *. (p10 -. p00)) +. (ty *. (p11 -. p01))) /. r.Rudy.bin_w
        else 0.0
      in
      let dy =
        if Float.equal uy fy then
          (((1.0 -. tx) *. (p01 -. p00)) +. (tx *. (p11 -. p10))) /. r.Rudy.bin_h
        else 0.0
      in
      v, dx, dy
    end
  in
  let congest_value ~cx ~cy =
    match !rt_field with
    | None -> 0.0
    | Some (r, p) ->
      let acc = ref 0.0 in
      Array.iter
        (fun i ->
          let a = soa.Soa.width.(i) *. soa.Soa.height.(i) in
          let v, _, _ = congest_sample r p cx.(i) cy.(i) in
          acc := !acc +. (a *. v))
        rt_cells;
      !acc
  in
  (* fused congestion value+gradient: same cell order and value expression
     as [congest_value], so the value is bit-identical to it *)
  let congest_value_grad ~cx ~cy ~gx ~gy =
    match !rt_field with
    | None -> 0.0
    | Some (r, p) ->
      let acc = ref 0.0 in
      Array.iter
        (fun i ->
          let a = soa.Soa.width.(i) *. soa.Soa.height.(i) in
          let v, dx, dy = congest_sample r p cx.(i) cy.(i) in
          acc := !acc +. (a *. v);
          gx.(i) <- gx.(i) +. (a *. dx);
          gy.(i) <- gy.(i) +. (a *. dy))
        rt_cells;
      !acc
  in
  (* working copies of the full center arrays; fixed/frozen entries never
     change *)
  let wx = afloats_raw "gp.wx" nc and wy = afloats_raw "gp.wy" nc in
  Array.blit cx 0 wx 0 nc;
  Array.blit cy 0 wy 0 nc;
  let gx = afloats "gp.gx" nc and gy = afloats "gp.gy" nc in
  let gxd = afloats "gp.gxd" nc and gyd = afloats "gp.gyd" nc in
  let gxa = afloats "gp.gxa" nc and gya = afloats "gp.gya" nc in
  (* variable packing: [x of free cells, x of group origins,
                        y of free cells, y of group origins] *)
  let scatter v =
    for k = 0 to m - 1 do
      wx.(movable_free.(k)) <- v.(k);
      wy.(movable_free.(k)) <- v.(nvar + k)
    done;
    for j = 0 to ng - 1 do
      let dg = rigid.(j) in
      let ox = v.(m + j) and oy = v.(nvar + m + j) in
      Array.iteri
        (fun i c ->
          wx.(c) <- ox +. dg.Dgroup.off_x.(i);
          wy.(c) <- oy +. dg.Dgroup.off_y.(i))
        dg.Dgroup.cells
    done
  in
  let half_w = afloats_raw "gp.half_w" m and half_h = afloats_raw "gp.half_h" m in
  for k = 0 to m - 1 do
    half_w.(k) <- soa.Soa.width.(movable_free.(k)) /. 2.0;
    half_h.(k) <- soa.Soa.height.(movable_free.(k)) /. 2.0
  done;
  let project v =
    for k = 0 to m - 1 do
      let hw = half_w.(k) and hh = half_h.(k) in
      let lo_x = die.Rect.xl +. hw and hi_x = die.Rect.xh -. hw in
      let lo_y = die.Rect.yl +. hh and hi_y = die.Rect.yh -. hh in
      if v.(k) < lo_x then v.(k) <- lo_x else if v.(k) > hi_x then v.(k) <- hi_x;
      if v.(nvar + k) < lo_y then v.(nvar + k) <- lo_y
      else if v.(nvar + k) > hi_y then v.(nvar + k) <- hi_y
    done;
    for j = 0 to ng - 1 do
      let dg = rigid.(j) in
      let hi_x = max die.Rect.xl (die.Rect.xh -. dg.Dgroup.width) in
      let hi_y = max die.Rect.yl (die.Rect.yh -. dg.Dgroup.height) in
      if v.(m + j) < die.Rect.xl then v.(m + j) <- die.Rect.xl
      else if v.(m + j) > hi_x then v.(m + j) <- hi_x;
      if v.(nvar + m + j) < die.Rect.yl then v.(nvar + m + j) <- die.Rect.yl
      else if v.(nvar + m + j) > hi_y then v.(nvar + m + j) <- hi_y
    done
  in
  let gamma0 = cfg.gamma_frac *. max grid.Grid.bin_w grid.Grid.bin_h in
  let gamma = ref gamma0 in
  let lambda = ref 0.0 in
  let beta = ref 0.0 in
  let soft = cfg.groups in
  let eval v =
    scatter v;
    let w = model_value ~gamma:!gamma ~cx:wx ~cy:wy in
    let dv = if !lambda > 0.0 then bell_value ~cx:wx ~cy:wy else 0.0 in
    let av = if !beta > 0.0 && soft <> [] then Alignment.value soft ~cx:wx ~cy:wy else 0.0 in
    let cv = if !mu > 0.0 then congest_value ~cx:wx ~cy:wy else 0.0 in
    w +. (!lambda *. dv) +. (!beta *. av) +. (!mu *. cv)
  in
  let gather g =
    for k = 0 to m - 1 do
      let i = movable_free.(k) in
      g.(k) <- gx.(i) +. (!lambda *. gxd.(i)) +. (!beta *. gxa.(i)) +. (!mu *. gxc.(i));
      g.(nvar + k) <- gy.(i) +. (!lambda *. gyd.(i)) +. (!beta *. gya.(i)) +. (!mu *. gyc.(i))
    done;
    for j = 0 to ng - 1 do
      let sx = ref 0.0 and sy = ref 0.0 in
      Array.iter
        (fun c ->
          sx :=
            !sx +. gx.(c) +. (!lambda *. gxd.(c)) +. (!beta *. gxa.(c)) +. (!mu *. gxc.(c));
          sy :=
            !sy +. gy.(c) +. (!lambda *. gyd.(c)) +. (!beta *. gya.(c)) +. (!mu *. gyc.(c)))
        rigid.(j).Dgroup.cells;
      g.(m + j) <- !sx;
      g.(nvar + m + j) <- !sy
    done
  in
  (* One fused sweep per term: every *_value_grad kernel returns the same
     value its value-only twin computes (identical accumulation order), so
     the objective comes out of the gradient pass for free — the combining
     expression mirrors [eval] exactly for bit-identity. *)
  let fill_gradients_value () =
    Array.fill gx 0 nc 0.0;
    Array.fill gy 0 nc 0.0;
    let w = model_value_grad ~gamma:!gamma ~cx:wx ~cy:wy ~gx ~gy in
    Array.fill gxd 0 nc 0.0;
    Array.fill gyd 0 nc 0.0;
    let dv = if !lambda > 0.0 then bell_value_grad ~cx:wx ~cy:wy ~gx:gxd ~gy:gyd else 0.0 in
    Array.fill gxa 0 nc 0.0;
    Array.fill gya 0 nc 0.0;
    let av =
      if !beta > 0.0 && soft <> [] then
        Alignment.value_grad soft ~cx:wx ~cy:wy ~gx:gxa ~gy:gya
      else 0.0
    in
    let cv =
      if !mu > 0.0 then begin
        Array.fill gxc 0 nc 0.0;
        Array.fill gyc 0 nc 0.0;
        congest_value_grad ~cx:wx ~cy:wy ~gx:gxc ~gy:gyc
      end
      else 0.0
    in
    w +. (!lambda *. dv) +. (!beta *. av) +. (!mu *. cv)
  in
  let fill_gradients () = ignore (fill_gradients_value ()) in
  let grad v g =
    scatter v;
    fill_gradients ();
    gather g
  in
  let eval_grad v g =
    scatter v;
    let f = fill_gradients_value () in
    gather g;
    f
  in
  (* initial variable vector (every slot is written below) *)
  let v0 = afloats_raw "gp.v0" (2 * nvar) in
  for k = 0 to m - 1 do
    v0.(k) <- cx.(movable_free.(k));
    v0.(nvar + k) <- cy.(movable_free.(k))
  done;
  for j = 0 to ng - 1 do
    let ox, oy = Dgroup.origin_of_positions rigid.(j) ~cx ~cy in
    v0.(m + j) <- ox;
    v0.(nvar + m + j) <- oy
  done;
  project v0;
  scatter v0;
  (* lambda / beta normalisation at the start point *)
  Array.fill gx 0 nc 0.0;
  Array.fill gy 0 nc 0.0;
  ignore (model_value_grad ~gamma:!gamma ~cx:wx ~cy:wy ~gx ~gy);
  let wl_grad_norm = grad_l1 gx +. grad_l1 gy in
  Array.fill gxd 0 nc 0.0;
  Array.fill gyd 0 nc 0.0;
  ignore (bell_value_grad ~cx:wx ~cy:wy ~gx:gxd ~gy:gyd);
  let dens_grad_norm = grad_l1 gxd +. grad_l1 gyd in
  lambda := if dens_grad_norm > 0.0 then wl_grad_norm /. dens_grad_norm else 1.0;
  if cfg.beta > 0.0 && soft <> [] then begin
    Array.fill gxa 0 nc 0.0;
    Array.fill gya 0 nc 0.0;
    ignore (Alignment.value_grad soft ~cx:wx ~cy:wy ~gx:gxa ~gy:gya);
    let a_norm = grad_l1 gxa +. grad_l1 gya in
    beta := if a_norm > 0.0 then cfg.beta *. wl_grad_norm /. a_norm else 0.0
  end;
  let problem = { Nlcg.n = 2 * nvar; eval; grad; eval_grad = Some eval_grad } in
  let v = ref v0 in
  let trace = ref [] in
  let stop = ref None in
  let round = ref 0 in
  let final_overflow = ref infinity in
  (* Best-seen tracking with a scalarized score: the legalizer can absorb
     residual overflow at a wirelength cost roughly proportional to it, so
     solutions compete on [hpwl * (1 + k * excess_overflow)] rather than on
     a hard feasible/infeasible split (which lets lambda escalation
     over-spread designs that reach the target late).  The loop also stops
     once overflow stagnates, instead of letting lambda erase the
     wirelength term entirely. *)
  (* raw + blit: the recycled best_x/best_y may be this run's own [cx]/[cy]
     inputs when the caller loops placements through the same arena *)
  let best_x = afloats_raw "gp.best_x" nc and best_y = afloats_raw "gp.best_y" nc in
  Array.blit wx 0 best_x 0 nc;
  Array.blit wy 0 best_y 0 nc;
  let best_score = ref infinity and best_ovf = ref infinity in
  (* With routability on, iterates also compete on their ACE congestion
     excess: without the term, best-seen would keep a pre-inflation
     iterate whose wirelength is marginally better and throw the
     congestion work away. *)
  let score ~overflow ~hpwl ~ace =
    let rt_pen = match ace with None -> 0.0 | Some a -> max 0.0 (a -. cfg.rt_overflow) in
    hpwl *. (1.0 +. (3.0 *. max 0.0 (overflow -. cfg.overflow_target)) +. rt_pen)
  in
  let stagnant = ref 0 in
  let consider ~overflow ~hpwl ~ace =
    let sc = score ~overflow ~hpwl ~ace in
    if sc < !best_score then begin
      Array.blit wx 0 best_x 0 (Array.length wx);
      Array.blit wy 0 best_y 0 (Array.length wy);
      best_score := sc;
      best_ovf := overflow
    end;
    if overflow > cfg.overflow_target && overflow > 0.98 *. !final_overflow then incr stagnant
    else stagnant := 0
  in
  (* post-solve RUDY measurement — every round when routability is on *)
  let rt_measure () =
    let r = Rudy.of_pins ~pool ?arena pins ~cx:wx ~cy:wy in
    r, Rudy.stats r
  in
  (* steering: refresh the fixed congestion field, update the inflation
     ledger under its budget, renormalise mu — all serial in ascending
     cell order (the RUDY map itself came off the pooled scatter) *)
  let rt_stall = ref 0 and rt_prev_ace = ref infinity in
  let rt_virtual_area () =
    Array.fold_left
      (fun acc i -> acc +. ((inflate.(i) -. 1.0) *. soa.Soa.width.(i) *. soa.Soa.height.(i)))
      0.0 rt_cells
  in
  let rt_steer (r : Rudy.t) (s : Rudy.stats) =
    let nb = Array.length r.Rudy.demand in
    let p = afloats_raw "gp.rt_excess" nb in
    for b = 0 to nb - 1 do
      p.(b) <- max 0.0 ((r.Rudy.demand.(b) /. r.Rudy.supply) -. cfg.rt_overflow)
    done;
    rt_field := Some (r, p);
    let clamp_ix v = max 0 (min (r.Rudy.nx - 1) v) in
    let clamp_iy v = max 0 (min (r.Rudy.ny - 1) v) in
    Array.iter
      (fun i ->
        let ix =
          clamp_ix (int_of_float ((wx.(i) -. die.Rect.xl) /. r.Rudy.bin_w))
        in
        let iy =
          clamp_iy (int_of_float ((wy.(i) -. die.Rect.yl) /. r.Rudy.bin_h))
        in
        let ratio = r.Rudy.demand.((iy * r.Rudy.nx) + ix) /. r.Rudy.supply in
        if ratio > cfg.rt_overflow then
          inflate.(i) <-
            min rt_cell_max (inflate.(i) *. (1.0 +. min 0.25 (ratio -. cfg.rt_overflow)))
        else if ratio < 0.9 *. cfg.rt_overflow then
          inflate.(i) <- max 1.0 (inflate.(i) *. 0.9))
      rt_cells;
    let va = rt_virtual_area () in
    let va =
      if va > rt_budget && va > 0.0 then begin
        (* uniform scale-back of every cell's excess keeps the budget an
           invariant, not a soft goal *)
        let sc = rt_budget /. va in
        Array.iter (fun i -> inflate.(i) <- 1.0 +. ((inflate.(i) -. 1.0) *. sc)) rt_cells;
        rt_virtual_area ()
      end
      else va
    in
    Bell.set_inflation bell inflate;
    Array.fill gx 0 nc 0.0;
    Array.fill gy 0 nc 0.0;
    ignore (model_value_grad ~gamma:!gamma ~cx:wx ~cy:wy ~gx ~gy);
    Array.fill gxc 0 nc 0.0;
    Array.fill gyc 0 nc 0.0;
    ignore (congest_value_grad ~cx:wx ~cy:wy ~gx:gxc ~gy:gyc);
    let c_norm = grad_l1 gxc +. grad_l1 gyc in
    mu := (if c_norm > 0.0 then 0.5 *. (grad_l1 gx +. grad_l1 gy) /. c_norm else 0.0);
    let inflated =
      Array.fold_left (fun n i -> if inflate.(i) > 1.0 then n + 1 else n) 0 rt_cells
    in
    rt_best := min !rt_best s.Rudy.ace_ratio;
    rt_trace :=
      {
        rt_round = !round;
        rt_max = s.Rudy.max_ratio;
        rt_ace = s.Rudy.ace_ratio;
        rt_overflowed = s.Rudy.overflowed_bins;
        rt_best = !rt_best;
        rt_inflated = inflated;
        rt_virtual = va;
        rt_budget;
      }
      :: !rt_trace
  in
  while !stop = None && !round < cfg.rounds do
    incr round;
    let options =
      {
        Nlcg.default_options with
        Nlcg.max_iter = cfg.inner_iters;
        grad_tol = 1e-9;
        f_tol = 1e-7;
        initial_step = max grid.Grid.bin_w grid.Grid.bin_h;
        project = Some project;
      }
    in
    let r = Nlcg.minimize ?arena ~options problem !v in
    v := r.Nlcg.x;
    scatter !v;
    (* Overflow is measured on the free cells only: rigid arrays are ~100%
       dense by construction, so counting them would eat most of the
       overflow budget and stop the loop while the glue is still clumped.
       Their current footprints become obstacles for the measurement. *)
    let overflow =
      if ng = 0 then Overflow.total_overflow ~frozen soa grid ~target_density ~cx:wx ~cy:wy
      else begin
        let array_rects =
          Array.to_list
            (Array.mapi
               (fun j (dg : Dgroup.t) ->
                 let ox = !v.(m + j) and oy = !v.(nvar + m + j) in
                 Rect.make ~xl:ox ~yl:oy ~xh:(ox +. dg.Dgroup.width)
                   ~yh:(oy +. dg.Dgroup.height))
               rigid)
        in
        let grid_eval = Grid.of_soa ~extra_obstacles:(extra_obstacles @ array_rects) soa ~nx ~ny in
        let frozen_eval i = frozen i || member_of.(i) >= 0 in
        Overflow.total_overflow ~frozen:frozen_eval soa grid_eval ~target_density ~cx:wx ~cy:wy
      end
    in
    let hpwl = Hpwl.total pins ~cx:wx ~cy:wy in
    let align_error = if soft <> [] then Alignment.total_error soft ~cx:wx ~cy:wy else 0.0 in
    let info =
      {
        round = !round;
        hpwl;
        overflow;
        gamma = !gamma;
        lambda = !lambda;
        objective = r.Nlcg.f;
        align_error;
      }
    in
    trace := info :: !trace;
    (match on_round with Some f -> f info | None -> ());
    let rt_ms = if rt_on then Some (rt_measure ()) else None in
    consider ~overflow ~hpwl ~ace:(Option.map (fun (_, s) -> s.Rudy.ace_ratio) rt_ms);
    final_overflow := overflow;
    (* With routability on, a density-feasible but congested iterate keeps
       the loop alive (the inflate/retry loop) until the ACE excess clears
       or stalls. *)
    let congested =
      match rt_ms with
      | Some (_, s) ->
        let c = s.Rudy.ace_ratio > cfg.rt_overflow in
        (* the stall counter judges whether steering is still paying off, so
           it only runs once at least one steering update has been applied *)
        if c && !rt_trace <> [] then begin
          if s.Rudy.ace_ratio > 0.995 *. !rt_prev_ace then incr rt_stall else rt_stall := 0;
          rt_prev_ace := s.Rudy.ace_ratio
        end;
        c
      | None -> false
    in
    if
      (overflow <= cfg.overflow_target || !stagnant >= 4)
      && ((not congested) || !rt_stall >= 3)
    then stop := Some (if overflow <= cfg.overflow_target then Target_reached else Stalled)
    else begin
      if overflow > cfg.overflow_target then begin
        lambda := !lambda *. cfg.lambda_mult;
        gamma := max (!gamma *. cfg.gamma_shrink) (0.02 *. gamma0);
        (* the soft alignment force tightens along with the density force *)
        if !beta > 0.0 then beta := !beta *. sqrt cfg.lambda_mult
      end;
      if rt_on && !round mod cfg.rt_interval = 0 then
        match rt_ms with Some (r, s) -> rt_steer r s | None -> ()
    end
  done;
  (* ledger close: the virtual area is a per-solve artifact — deflate
     everything so the density model (shared [bell] state) and the trace
     both end with zero inflation outstanding *)
  if rt_on then begin
    Array.fill inflate 0 nc 1.0;
    Bell.reset_inflation bell;
    match !rt_trace with
    | [] -> ()
    | last :: _ ->
      rt_trace :=
        { last with rt_round = !round; rt_inflated = 0; rt_virtual = 0.0 } :: !rt_trace
  end;
  (* return the best solution seen, not necessarily the last iterate *)
  Array.blit best_x 0 wx 0 (Array.length wx);
  Array.blit best_y 0 wy 0 (Array.length wy);
  {
    cx = best_x;
    cy = best_y;
    trace = List.rev !trace;
    final_overflow = (if !best_score = infinity then !final_overflow else !best_ovf);
    final_hpwl = Hpwl.total pins ~cx:wx ~cy:wy;
    rt_trace = List.rev !rt_trace;
    stop = Option.value !stop ~default:Round_cap;
  }

(* ----- multilevel V-cycle ----- *)

type level_info = {
  level : int;
  movables : int;
  rounds_run : int;
  hpwl : float;
  overflow : float;
  wall_s : float;
}

type ml_result = { result : result; level_trace : level_info list }

(* Coarse levels solve a smaller, structurally simpler problem: group
   clusters are single cells there, so the rigid/soft machinery is off,
   and the loose overflow target just has to spread clusters enough that
   interpolation hands the next level a de-clumped start. *)
let coarse_config cfg =
  {
    cfg with
    inner_iters = max 15 (cfg.inner_iters / 2);
    overflow_target = max cfg.overflow_target 0.10;
    grid = None;
    beta = 0.0;
    groups = [];
    rigid_groups = [];
  }

(* The flat refinement starts from an interpolated placement that is
   already globally spread, so it needs far fewer lambda rounds than a
   cold start — this is where the multilevel speedup comes from. *)
let refine_config cfg = { cfg with rounds = min cfg.rounds (max 4 (cfg.rounds / 3)) }

let run_multilevel ?arena ?on_round ?on_level ~pins cfg ~(levels : Dpp_coarsen.level list) ~cx
    ~cy =
  match levels with
  | [] -> { result = run ?arena ?on_round ~pins cfg ~cx ~cy; level_trace = [] }
  | levels ->
    let larr = Array.of_list levels in
    let nl = Array.length larr in
    (* restriction: propagate the current centers up the hierarchy *)
    let coords = Array.make (nl + 1) (cx, cy) in
    coords.(0) <- (Array.copy cx, Array.copy cy);
    for k = 0 to nl - 1 do
      let fcx, fcy = coords.(k) in
      coords.(k + 1) <- Dpp_coarsen.cluster_centers ?arena larr.(k) ~cx:fcx ~cy:fcy
    done;
    let timer = Dpp_util.Timer.create () in
    let trace = ref [] in
    (* coarsest-first: solve each level, prolongate into the next finer *)
    for k = nl - 1 downto 0 do
      let coarse = larr.(k).Dpp_coarsen.coarse in
      let ccx, ccy = coords.(k + 1) in
      let name = Printf.sprintf "L%d" (k + 1) in
      let r =
        Dpp_util.Timer.time timer name (fun () ->
            (* each coarse level gets its own pin view, built here once *)
            run ~pins:(Pins.of_soa coarse) (coarse_config cfg) ~cx:ccx ~cy:ccy)
      in
      let info =
        {
          level = k + 1;
          movables = Array.length (Soa.movable_ids coarse);
          rounds_run = List.length r.trace;
          hpwl = r.final_hpwl;
          overflow = r.final_overflow;
          wall_s = Dpp_util.Timer.get timer name;
        }
      in
      trace := info :: !trace;
      (match on_level with Some f -> f info | None -> ());
      let fcx, fcy = coords.(k) in
      Dpp_coarsen.interpolate larr.(k) ~ccx:r.cx ~ccy:r.cy ~cx:fcx ~cy:fcy
    done;
    let fcx, fcy = coords.(0) in
    (* only the flat refinement shares the arena: the coarse levels all
       have different sizes, so recycling across them would just thrash
       the buffers (their views are also per-level by construction) *)
    let r = run ?arena ?on_round ~pins (refine_config cfg) ~cx:fcx ~cy:fcy in
    { result = r; level_trace = !trace }
