module Rect = Dpp_geom.Rect
module Orient = Dpp_geom.Orient

type t = {
  name : string;
  die : Rect.t;
  row_height : float;
  site_width : float;
  num_rows : int;
  cells : Types.cell array;
  nets : Types.net array;
  pins : Types.pin array;
  x : float array;
  y : float array;
  orient : Orient.t array;
  groups : Groups.t list;
}

let num_cells t = Array.length t.cells
let num_nets t = Array.length t.nets
let num_pins t = Array.length t.pins
let cell t i = t.cells.(i)
let net t i = t.nets.(i)
let pin t i = t.pins.(i)

let cell_rect t i =
  let c = t.cells.(i) in
  let w, h = Orient.apply t.orient.(i) ~w:c.Types.c_width ~h:c.Types.c_height in
  Rect.make ~xl:t.x.(i) ~yl:t.y.(i) ~xh:(t.x.(i) +. w) ~yh:(t.y.(i) +. h)

let oriented_dims t i =
  let c = t.cells.(i) in
  Orient.apply t.orient.(i) ~w:c.Types.c_width ~h:c.Types.c_height

let cell_center_x t i =
  let w, _ = oriented_dims t i in
  t.x.(i) +. (w /. 2.0)

let cell_center_y t i =
  let _, h = oriented_dims t i in
  t.y.(i) +. (h /. 2.0)

let set_center t i cx cy =
  let w, h = oriented_dims t i in
  t.x.(i) <- cx -. (w /. 2.0);
  t.y.(i) <- cy -. (h /. 2.0)

let pin_position t i =
  let p = t.pins.(i) in
  let ci = p.Types.p_cell in
  let c = t.cells.(ci) in
  let dx, dy =
    Orient.apply_offset t.orient.(ci) ~w:c.Types.c_width ~h:c.Types.c_height
      (p.Types.p_dx, p.Types.p_dy)
  in
  t.x.(ci) +. dx, t.y.(ci) +. dy

let row_y_at ~(die : Rect.t) ~row_height r = die.Rect.yl +. (float_of_int r *. row_height)

let row_at ~(die : Rect.t) ~row_height ~num_rows y =
  let r = int_of_float (floor ((y -. die.Rect.yl) /. row_height)) in
  max 0 (min (num_rows - 1) r)

let row_y t r = row_y_at ~die:t.die ~row_height:t.row_height r
let row_of_y t y = row_at ~die:t.die ~row_height:t.row_height ~num_rows:t.num_rows y

let ids_with_pred t pred =
  let acc = ref [] in
  for i = num_cells t - 1 downto 0 do
    if pred t.cells.(i).Types.c_kind then acc := i :: !acc
  done;
  Array.of_list !acc

let movable_ids t = ids_with_pred t (fun k -> not (Types.is_fixed_kind k))
let fixed_ids t = ids_with_pred t Types.is_fixed_kind

let movable_area t =
  Array.fold_left
    (fun acc (c : Types.cell) ->
      if Types.is_fixed_kind c.Types.c_kind then acc
      else acc +. (c.Types.c_width *. c.Types.c_height))
    0.0 t.cells

let fixed_core_area t =
  let acc = ref 0.0 in
  Array.iter
    (fun (c : Types.cell) ->
      match c.Types.c_kind with
      | Types.Fixed -> acc := !acc +. Rect.overlap_area t.die (cell_rect t c.Types.c_id)
      | Types.Pad | Types.Movable -> ())
    t.cells;
  !acc

let utilization t =
  let free = Rect.area t.die -. fixed_core_area t in
  if free <= 0.0 then infinity else movable_area t /. free

let copy_positions t = Array.copy t.x, Array.copy t.y

let restore_positions t x y =
  Array.blit x 0 t.x 0 (Array.length x);
  Array.blit y 0 t.y 0 (Array.length y)

let with_groups t groups = { t with groups }

let average_net_degree t =
  if num_nets t = 0 then 0.0
  else begin
    let acc = ref 0 in
    Array.iter (fun (n : Types.net) -> acc := !acc + Array.length n.Types.n_pins) t.nets;
    float_of_int !acc /. float_of_int (num_nets t)
  end
