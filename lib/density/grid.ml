module Rect = Dpp_geom.Rect
module Soa = Dpp_netlist.Soa
module I8 = Dpp_util.Compact.I8

type t = {
  die : Rect.t;
  nx : int;
  ny : int;
  bin_w : float;
  bin_h : float;
  capacity : float array;
}

let index t ix iy = (iy * t.nx) + ix

(* Monomorphic clamps with Stdlib [min]/[max]'s exact selection
   ([<=]/[>=]): the polymorphic ones are out-of-line calls. *)
let[@inline] clamp n v =
  let v = if n - 1 <= v then n - 1 else v in
  if 0 >= v then 0 else v

let[@inline] fmin (a : float) b = if a <= b then a else b
let[@inline] fmax (a : float) b = if a >= b then a else b

let bin_center_x t ix = t.die.Rect.xl +. ((float_of_int ix +. 0.5) *. t.bin_w)
let bin_center_y t iy = t.die.Rect.yl +. ((float_of_int iy +. 0.5) *. t.bin_h)

let bin_rect t ~ix ~iy =
  let xl = t.die.Rect.xl +. (float_of_int ix *. t.bin_w) in
  let yl = t.die.Rect.yl +. (float_of_int iy *. t.bin_h) in
  Rect.make ~xl ~yl ~xh:(xl +. t.bin_w) ~yh:(yl +. t.bin_h)

let ix_of_x t x = clamp t.nx (int_of_float (floor ((x -. t.die.Rect.xl) /. t.bin_w)))

let range_of_interval ~lo ~hi ~origin ~step ~n =
  let a = int_of_float (floor ((lo -. origin) /. step)) in
  let b = int_of_float (ceil ((hi -. origin) /. step)) - 1 in
  clamp n a, clamp n b

let of_soa ?(extra_obstacles = []) (s : Soa.t) ~nx ~ny =
  if nx <= 0 || ny <= 0 then invalid_arg "Grid.build: non-positive dimensions";
  let die = s.Soa.die in
  let bin_w = Rect.width die /. float_of_int nx in
  let bin_h = Rect.height die /. float_of_int ny in
  let capacity = Array.make (nx * ny) (bin_w *. bin_h) in
  (* each bin's overlap is [Rect.overlap_area r (bin_rect ...)] evaluated
     on scalars, without a rectangle per bin *)
  let subtract_rect r =
    match Rect.intersection r die with
    | None -> ()
    | Some r ->
      let ix0, ix1 =
        range_of_interval ~lo:r.Rect.xl ~hi:r.Rect.xh ~origin:die.Rect.xl ~step:bin_w ~n:nx
      in
      let iy0, iy1 =
        range_of_interval ~lo:r.Rect.yl ~hi:r.Rect.yh ~origin:die.Rect.yl ~step:bin_h ~n:ny
      in
      for iy = iy0 to iy1 do
        let yl = die.Rect.yl +. (float_of_int iy *. bin_h) in
        let h = fmin r.Rect.yh (yl +. bin_h) -. fmax r.Rect.yl yl in
        for ix = ix0 to ix1 do
          let xl = die.Rect.xl +. (float_of_int ix *. bin_w) in
          let w = fmin r.Rect.xh (xl +. bin_w) -. fmax r.Rect.xl xl in
          let ov = if w > 0.0 && h > 0.0 then w *. h else 0.0 in
          let idx = (iy * nx) + ix in
          capacity.(idx) <- fmax 0.0 (capacity.(idx) -. ov)
        done
      done
  in
  List.iter subtract_rect extra_obstacles;
  for i = 0 to Soa.num_cells s - 1 do
    if I8.get s.Soa.kind i = Soa.kind_fixed then subtract_rect (Soa.cell_rect s i)
  done;
  { die; nx; ny; bin_w; bin_h; capacity }

let dims_of_soa (s : Soa.t) =
  let movable = Array.length (Soa.movable_ids s) in
  (* ~4 movable cells per bin: fine enough that bin-local pile-ups cannot
     hide much displacement from the legalizer *)
  let side = int_of_float (Float.round (sqrt (float_of_int movable /. 4.0))) in
  let side = max 8 (min 512 side) in
  side, side

let build d ~nx ~ny = of_soa (Soa.of_design d) ~nx ~ny
let default_dims d = dims_of_soa (Soa.of_design d)
let total_capacity t = Array.fold_left ( +. ) 0.0 t.capacity
