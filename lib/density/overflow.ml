module Rect = Dpp_geom.Rect
module Soa = Dpp_netlist.Soa
module I8 = Dpp_util.Compact.I8

(* Float [min]/[max] with Stdlib's exact selection ([<=]/[>=]), but
   specialised: the polymorphic ones are out-of-line calls on boxed
   floats. *)
let[@inline] fmin (a : float) b = if a <= b then a else b
let[@inline] fmax (a : float) b = if a >= b then a else b
let[@inline] clamp_bin n v =
  let v = if n - 1 <= v then n - 1 else v in
  if 0 >= v then 0 else v

(* Accumulate movable-cell footprints into [usage] and return the total
   movable area (every non-fixed cell, frozen ones included, as
   [Design.movable_area] sums it).  Scalar throughout: the bin window is
   [Grid.range_of_interval]'s expression and each bin's overlap is
   [Rect.overlap_area] of the cell rectangle against [Grid.bin_rect],
   evaluated without a [Rect.t], a tuple or a boxed float per cell or
   bin.  Cells go in ascending id and bins (iy outer, ix inner), so every
   sum is bit-identical to those functions composed. *)
let accumulate_usage ~frozen (s : Soa.t) (g : Grid.t) ~cx ~cy (usage : float array) =
  let ox = g.Grid.die.Rect.xl and oy = g.Grid.die.Rect.yl in
  let bw = g.Grid.bin_w and bh = g.Grid.bin_h in
  let nx = g.Grid.nx and ny = g.Grid.ny in
  let area = ref 0.0 in
  for i = 0 to Soa.num_cells s - 1 do
    if I8.get s.Soa.kind i = Soa.kind_movable then begin
      let w = s.Soa.width.(i) and h = s.Soa.height.(i) in
      area := !area +. (w *. h);
      if not (frozen i) then begin
        let xl = cx.(i) -. (w /. 2.0) and yl = cy.(i) -. (h /. 2.0) in
        let xh = xl +. w and yh = yl +. h in
        let ix0 = clamp_bin nx (int_of_float (floor ((xl -. ox) /. bw))) in
        let ix1 = clamp_bin nx (int_of_float (ceil ((xh -. ox) /. bw)) - 1) in
        let iy0 = clamp_bin ny (int_of_float (floor ((yl -. oy) /. bh))) in
        let iy1 = clamp_bin ny (int_of_float (ceil ((yh -. oy) /. bh)) - 1) in
        for iy = iy0 to iy1 do
          let byl = oy +. (float_of_int iy *. bh) in
          let ov_h = fmin yh (byl +. bh) -. fmax yl byl in
          for ix = ix0 to ix1 do
            let bxl = ox +. (float_of_int ix *. bw) in
            let ov_w = fmin xh (bxl +. bw) -. fmax xl bxl in
            let ov = if ov_w > 0.0 && ov_h > 0.0 then ov_w *. ov_h else 0.0 in
            if ov > 0.0 then begin
              let b = (iy * nx) + ix in
              usage.(b) <- usage.(b) +. ov
            end
          done
        done
      end
    end
  done;
  !area

let bin_usage ?(frozen = fun _ -> false) s (g : Grid.t) ~cx ~cy =
  let usage = Array.make (g.Grid.nx * g.Grid.ny) 0.0 in
  ignore (accumulate_usage ~frozen s g ~cx ~cy usage);
  usage

let total_overflow ?(frozen = fun _ -> false) s g ~target_density ~cx ~cy =
  let usage = Array.make (g.Grid.nx * g.Grid.ny) 0.0 in
  let total_area = accumulate_usage ~frozen s g ~cx ~cy usage in
  if total_area <= 0.0 then 0.0
  else begin
    let acc = ref 0.0 in
    for b = 0 to Array.length usage - 1 do
      let cap = target_density *. g.Grid.capacity.(b) in
      if usage.(b) > cap then acc := !acc +. (usage.(b) -. cap)
    done;
    !acc /. total_area
  end

let max_density s g ~cx ~cy =
  let usage = bin_usage s g ~cx ~cy in
  let m = ref 0.0 in
  for b = 0 to Array.length usage - 1 do
    let cap = g.Grid.capacity.(b) in
    let ratio = if cap > 0.0 then usage.(b) /. cap else if usage.(b) > 0.0 then infinity else 0.0 in
    if ratio > !m then m := ratio
  done;
  !m
