module Rect = Dpp_geom.Rect
module Design = Dpp_netlist.Design
module Soa = Dpp_netlist.Soa
module Pins = Dpp_wirelen.Pins

type t = {
  nx : int;
  ny : int;
  bin_w : float;
  bin_h : float;
  demand : float array;
  supply : float;
}

(* Monomorphic clamps with Stdlib [min]/[max]'s exact selection
   ([<=]/[>=]): the polymorphic ones are out-of-line calls on boxed
   floats inside the scatter. *)
let[@inline] clamp n v =
  let v = if n - 1 <= v then n - 1 else v in
  if 0 >= v then 0 else v

let[@inline] fmin (a : float) b = if a <= b then a else b
let[@inline] fmax (a : float) b = if a >= b then a else b

let default_dims (s : Soa.t) =
  let movable = Array.length (Soa.movable_ids s) in
  let side = int_of_float (Float.round (sqrt (float_of_int movable /. 4.0))) in
  let side = max 8 (min 256 side) in
  side, side

module Pool = Dpp_par.Pool

let of_pins ?pool ?arena ?nx ?ny (pins : Pins.t) ~cx ~cy =
  let soa = pins.Pins.soa in
  let dnx, dny = default_dims soa in
  (* a non-positive request (or a degenerate derivation) collapses to the
     single-bin grid rather than a zero-length demand array *)
  let nx = max 1 (Option.value nx ~default:dnx)
  and ny = max 1 (Option.value ny ~default:dny) in
  let die = soa.Soa.die in
  (* zero-extent dies (all rows degenerate, or a single-point outline)
     would make every bin zero-area and the normalisation below divide by
     zero; fall back to unit bins so the map stays finite *)
  let bin_w =
    let w = Rect.width die /. float_of_int nx in
    if w > 0.0 then w else 1.0
  in
  let bin_h =
    let h = Rect.height die /. float_of_int ny in
    if h > 0.0 then h else 1.0
  in
  (* arena-recycled buffers make the routability loop's every-round RUDY
     evaluation allocation-free; [floats] zero-fills, so the scatter sees
     exactly what a fresh [Array.make] would.  The returned map then
     aliases the arena: it is invalidated by the next call against
     the same arena. *)
  let afloats key n =
    match arena with Some a -> Dpp_util.Arena.floats a key n | None -> Array.make n 0.0
  in
  let demand = afloats "rudy.demand" (nx * ny) in
  let clamp_ix v = clamp nx v and clamp_iy v = clamp ny v in
  (* [wrow] hoists the per-column x-overlap widths of the net box across
     the window's rows; the widths and the (w > 0 && h > 0 then w *. h)
     gate are exactly [Rect.overlap_area]'s floats, so the scatter is
     bit-identical to the old per-bin [Rect.make] + [overlap_area] pair
     without its per-bin allocation. *)
  let scatter_net (view : Pins.t) (wrow : float array) grid n =
    let k = Pins.load_net view ~cx ~cy n in
    if k >= 2 then begin
      let xmin = ref view.Pins.scratch_x.(0) and xmax = ref view.Pins.scratch_x.(0) in
      let ymin = ref view.Pins.scratch_y.(0) and ymax = ref view.Pins.scratch_y.(0) in
      for i = 1 to k - 1 do
        let x = view.Pins.scratch_x.(i) and y = view.Pins.scratch_y.(i) in
        if x < !xmin then xmin := x;
        if x > !xmax then xmax := x;
        if y < !ymin then ymin := y;
        if y > !ymax then ymax := y
      done;
      (* degenerate boxes get one wire-width of extent *)
      let w = fmax 1.0 (!xmax -. !xmin) and h = fmax 1.0 (!ymax -. !ymin) in
      let weight = soa.Soa.net_weight.(n) in
      let density = weight *. (w +. h) /. (w *. h) in
      let box_xl = !xmin and box_yl = !ymin in
      let box_xh = !xmin +. w and box_yh = !ymin +. h in
      let ix0 = clamp_ix (int_of_float (floor ((box_xl -. die.Rect.xl) /. bin_w))) in
      let ix1 = clamp_ix (int_of_float (ceil ((box_xh -. die.Rect.xl) /. bin_w)) - 1) in
      let iy0 = clamp_iy (int_of_float (floor ((box_yl -. die.Rect.yl) /. bin_h))) in
      let iy1 = clamp_iy (int_of_float (ceil ((box_yh -. die.Rect.yl) /. bin_h)) - 1) in
      for ix = ix0 to ix1 do
        let bxl = die.Rect.xl +. (float_of_int ix *. bin_w) in
        let bxh = die.Rect.xl +. (float_of_int (ix + 1) *. bin_w) in
        wrow.(ix) <- fmin box_xh bxh -. fmax box_xl bxl
      done;
      for iy = iy0 to iy1 do
        let byl = die.Rect.yl +. (float_of_int iy *. bin_h) in
        let byh = die.Rect.yl +. (float_of_int (iy + 1) *. bin_h) in
        let hh = fmin box_yh byh -. fmax box_yl byl in
        if hh > 0.0 then begin
          let row = iy * nx in
          for ix = ix0 to ix1 do
            let ww = wrow.(ix) in
            if ww > 0.0 then begin
              let ov = ww *. hh in
              if ov > 0.0 then grid.(row + ix) <- grid.(row + ix) +. (density *. ov)
            end
          done
        end
      done
    end
  in
  (match pool with
  | None ->
    let wrow = afloats "rudy.wrow" nx in
    for n = 0 to Soa.num_nets soa - 1 do
      scatter_net pins wrow demand n
    done
  | Some pool ->
    (* Chunk-local demand grids merged per bin in ascending chunk order:
       the chunk layout is fixed, so the map is bit-stable across worker
       counts (though not bit-equal to the serial scatter). *)
    let views =
      Array.init (Pool.nworkers pool) (fun w -> if w = 0 then pins else Pins.clone_scratch pins)
    in
    let chunk_demand =
      Array.init Pool.chunk_count (fun c -> afloats (Printf.sprintf "rudy.chunk%d" c) (nx * ny))
    in
    let chunk_wrow =
      Array.init Pool.chunk_count (fun c -> afloats (Printf.sprintf "rudy.wrow%d" c) nx)
    in
    Pool.iter_chunks pool ~n:(Soa.num_nets soa) (fun ~worker ~chunk ~lo ~hi ->
        let grid = chunk_demand.(chunk) in
        let wrow = chunk_wrow.(chunk) in
        for n = lo to hi - 1 do
          scatter_net views.(worker) wrow grid n
        done);
    Pool.iter_chunks pool ~n:(nx * ny) (fun ~worker:_ ~chunk:_ ~lo ~hi ->
        for b = lo to hi - 1 do
          let acc = ref 0.0 in
          for c = 0 to Pool.chunk_count - 1 do
            acc := !acc +. chunk_demand.(c).(b)
          done;
          demand.(b) <- acc.contents
        done));
  (* express demand as density per area unit: divide by bin area *)
  let bin_area = bin_w *. bin_h in
  Array.iteri (fun i v -> demand.(i) <- v /. bin_area) demand;
  { nx; ny; bin_w; bin_h; demand; supply = 1.0 }

let compute ~pins (_ : Design.t) ~cx ~cy = of_pins pins ~cx ~cy

type stats = {
  max_ratio : float;
  avg_ratio : float;
  p95_ratio : float;
  ace_ratio : float;
  overflowed_bins : float;
}

let ace_fraction = 0.05

let stats t =
  let ratios = Array.map (fun v -> v /. t.supply) t.demand in
  let n = Array.length ratios in
  let over = Array.fold_left (fun acc r -> if r > 1.0 then acc + 1 else acc) 0 ratios in
  (* ACE-style top-k average: mean utilisation of the hottest 5% of bins
     (at least one), the congestion headline less noisy than the single
     hottest bin *)
  let sorted = Array.copy ratios in
  Array.sort (fun a b -> Float.compare b a) sorted;
  let k = max 1 (int_of_float (ace_fraction *. float_of_int n)) in
  let top = ref 0.0 in
  for i = 0 to k - 1 do
    top := !top +. sorted.(i)
  done;
  {
    max_ratio = Dpp_util.Statx.maximum ratios;
    avg_ratio = Dpp_util.Statx.mean ratios;
    p95_ratio = Dpp_util.Statx.quantile ratios 0.95;
    ace_ratio = !top /. float_of_int k;
    overflowed_bins = float_of_int over /. float_of_int (max 1 n);
  }

let ratio_at t ~ix ~iy = t.demand.((iy * t.nx) + ix) /. t.supply

let hotspots t ~count =
  let all = ref [] in
  for iy = 0 to t.ny - 1 do
    for ix = 0 to t.nx - 1 do
      all := (ix, iy, ratio_at t ~ix ~iy) :: !all
    done
  done;
  List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a) !all
  |> List.filteri (fun i _ -> i < count)
