module Rect = Dpp_geom.Rect
module Orient = Dpp_geom.Orient
module I32 = Dpp_util.Compact.I32
module I8 = Dpp_util.Compact.I8
module F64 = Dpp_util.Compact.F64

type t = {
  name : string;
  die : Rect.t;
  row_height : float;
  site_width : float;
  num_rows : int;
  num_cells : int;
  num_nets : int;
  num_pins : int;
  (* cell fields, indexed by cell id *)
  cell_name : string array;
  cell_master : string array;  (* interned: one block per distinct master *)
  width : float array;
  height : float array;
  kind : I8.t;
  x : float array;
  y : float array;
  orient : Orient.t array;
  (* cell -> pins CSR, preserving each cell's pin-list order *)
  cell_pin_off : I32.t;
  cell_pin : I32.t;
  (* net fields, indexed by net id *)
  net_name : string array;
  net_weight : float array;
  (* net -> pins CSR, preserving each net's pin-array order *)
  net_pin_off : I32.t;
  net_pin : I32.t;
  (* pin fields, indexed by pin id *)
  pin_cell : I32.t;
  pin_net : I32.t;
  pin_dir : I8.t;
  pin_dx : F64.t;
  pin_dy : F64.t;
  (* deduplicated cell<->net adjacency: nets list their distinct cells
     ascending, cells list their distinct nets ascending *)
  net_cell_off : I32.t;
  net_cell : I32.t;
  cell_net_off : I32.t;
  cell_net : I32.t;
  groups : Groups.t list;
}

let kind_movable = 0
let kind_fixed = 1
let kind_pad = 2

let code_of_kind = function
  | Types.Movable -> kind_movable
  | Types.Fixed -> kind_fixed
  | Types.Pad -> kind_pad

let kind_of_code = function
  | 0 -> Types.Movable
  | 1 -> Types.Fixed
  | _ -> Types.Pad

let code_of_dir = function Types.Input -> 0 | Types.Output -> 1 | Types.Inout -> 2
let dir_of_code = function 0 -> Types.Input | 1 -> Types.Output | _ -> Types.Inout

let is_fixed t i = I8.uget t.kind i <> kind_movable

(* The int32 CSR overflow gate: entity counts and pin offsets must fit an
   int32 slot.  A design past 2^31 pins fails fast at derivation time
   with the counted total, never by silent wraparound inside a kernel. *)
let guard_pin_count ~name counted =
  if counted > I32.max_value then
    failwith
      (Printf.sprintf
         "Soa.of_design(%s): counted %d pins, which exceeds the int32 CSR offset range \
          (max %d)"
         name counted I32.max_value)

(* Distinct-cell/distinct-net CSR in both directions, without sorting:
   visiting nets in ascending id order lists each cell's nets ascending,
   and transposing that by ascending cell id lists each net's cells
   ascending.  [stamp.(c) = n] marks cell [c] as already seen on net [n]. *)
let build_adjacency ~nc ~nn ~net_pin_off ~net_pin ~pin_cell =
  let stamp = Array.make nc (-1) in
  let net_cell_off = I32.make (nn + 1) 0 and cell_net_off = I32.make (nc + 1) 0 in
  let iter_distinct n f =
    for k = I32.get net_pin_off n to I32.get net_pin_off (n + 1) - 1 do
      let c = I32.get pin_cell (I32.get net_pin k) in
      if stamp.(c) <> n then begin
        stamp.(c) <- n;
        f c
      end
    done
  in
  for n = 0 to nn - 1 do
    let deg = ref 0 in
    iter_distinct n (fun c ->
        incr deg;
        I32.set cell_net_off (c + 1) (I32.get cell_net_off (c + 1) + 1));
    I32.set net_cell_off (n + 1) (I32.get net_cell_off n + !deg)
  done;
  for c = 0 to nc - 1 do
    I32.set cell_net_off (c + 1) (I32.get cell_net_off c + I32.get cell_net_off (c + 1))
  done;
  let cell_net = I32.make (max 1 (I32.get cell_net_off nc)) 0 in
  let cursor = Array.init nc (I32.get cell_net_off) in
  Array.fill stamp 0 nc (-1);
  for n = 0 to nn - 1 do
    iter_distinct n (fun c ->
        I32.set cell_net cursor.(c) n;
        cursor.(c) <- cursor.(c) + 1)
  done;
  let net_cell = I32.make (max 1 (I32.get net_cell_off nn)) 0 in
  let cursor = Array.init nn (I32.get net_cell_off) in
  for c = 0 to nc - 1 do
    for k = I32.get cell_net_off c to I32.get cell_net_off (c + 1) - 1 do
      let n = I32.get cell_net k in
      I32.set net_cell cursor.(n) c;
      cursor.(n) <- cursor.(n) + 1
    done
  done;
  net_cell_off, net_cell, cell_net_off, cell_net

(* Count-then-fill CSR: row [i] holds [len i] ids, written by [fill i]
   from its offset into the payload. *)
let csr n ~len ~fill =
  let off = I32.make (n + 1) 0 in
  for i = 0 to n - 1 do
    I32.set off (i + 1) (I32.get off i + len i)
  done;
  let payload = I32.make (max 1 (I32.get off n)) 0 in
  for i = 0 to n - 1 do
    fill i payload (I32.get off i)
  done;
  off, payload

let make ~name ~die ~row_height ~site_width ~num_rows ~cell_name ~cell_master ~width ~height
    ~kind ~x ~y ~orient ~cell_pin_off ~cell_pin ~net_name ~net_weight ~net_pin_off ~net_pin
    ~pin_cell ~pin_net ~pin_dir ~pin_dx ~pin_dy ~groups =
  let nc = Array.length width and nn = Array.length net_weight in
  let np = I32.get cell_pin_off nc in
  let net_cell_off, net_cell, cell_net_off, cell_net =
    build_adjacency ~nc ~nn ~net_pin_off ~net_pin ~pin_cell
  in
  {
    name;
    die;
    row_height;
    site_width;
    num_rows;
    num_cells = nc;
    num_nets = nn;
    num_pins = np;
    cell_name;
    cell_master;
    width;
    height;
    kind;
    x;
    y;
    orient;
    cell_pin_off;
    cell_pin;
    net_name;
    net_weight;
    net_pin_off;
    net_pin;
    pin_cell;
    pin_net;
    pin_dir;
    pin_dx;
    pin_dy;
    net_cell_off;
    net_cell;
    cell_net_off;
    cell_net;
    groups;
  }

let of_design (d : Design.t) =
  let nc = Design.num_cells d in
  let nn = Design.num_nets d in
  let np = Design.num_pins d in
  guard_pin_count ~name:d.Design.name np;
  let pool = Dpp_util.Strpool.create () in
  let kind = I8.make nc kind_movable in
  Array.iteri
    (fun i (c : Types.cell) -> I8.set kind i (code_of_kind c.Types.c_kind))
    d.Design.cells;
  let blit_ids ids dst off =
    I32.blit_array ids ~src_off:0 dst ~dst_off:off ~len:(Array.length ids)
  in
  let cell_pin_off, cell_pin =
    csr nc
      ~len:(fun i -> Array.length d.Design.cells.(i).Types.c_pins)
      ~fill:(fun i -> blit_ids d.Design.cells.(i).Types.c_pins)
  in
  let net_pin_off, net_pin =
    csr nn
      ~len:(fun n -> Array.length d.Design.nets.(n).Types.n_pins)
      ~fill:(fun n -> blit_ids d.Design.nets.(n).Types.n_pins)
  in
  let pin_cell = I32.make (max 1 np) 0 in
  let pin_net = I32.make (max 1 np) (-1) in
  let pin_dir = I8.make (max 1 np) (code_of_dir Types.Inout) in
  let pin_dx = F64.make (max 1 np) 0.0 in
  let pin_dy = F64.make (max 1 np) 0.0 in
  for p = 0 to np - 1 do
    let pin = d.Design.pins.(p) in
    I32.set pin_cell p pin.Types.p_cell;
    I32.set pin_net p pin.Types.p_net;
    I8.set pin_dir p (code_of_dir pin.Types.p_dir);
    F64.set pin_dx p pin.Types.p_dx;
    F64.set pin_dy p pin.Types.p_dy
  done;
  let cell f = Array.map f d.Design.cells and net f = Array.map f d.Design.nets in
  let cell_master = cell (fun c -> Dpp_util.Strpool.intern pool c.Types.c_master) in
  let net_name = net (fun n -> Dpp_util.Strpool.intern pool n.Types.n_name) in
  (* the coordinate and orientation arrays are ALIASED, not copied: the
     flat view and the record view always agree on live placement state,
     so in-place moves (flip, apply_centers) need no synchronization *)
  make ~name:d.Design.name ~die:d.Design.die ~row_height:d.Design.row_height
    ~site_width:d.Design.site_width ~num_rows:d.Design.num_rows
    ~cell_name:(cell (fun c -> c.Types.c_name))
    ~cell_master
    ~width:(cell (fun c -> c.Types.c_width))
    ~height:(cell (fun c -> c.Types.c_height))
    ~kind ~x:d.Design.x ~y:d.Design.y ~orient:d.Design.orient ~cell_pin_off ~cell_pin ~net_name
    ~net_weight:(net (fun n -> n.Types.n_weight))
    ~net_pin_off ~net_pin ~pin_cell ~pin_net ~pin_dir ~pin_dx ~pin_dy ~groups:d.Design.groups

let to_design t =
  let cells =
    Array.init t.num_cells (fun i ->
        let lo = I32.get t.cell_pin_off i in
        {
          Types.c_id = i;
          c_name = t.cell_name.(i);
          c_master = t.cell_master.(i);
          c_width = t.width.(i);
          c_height = t.height.(i);
          c_kind = kind_of_code (I8.get t.kind i);
          c_pins = I32.sub_array t.cell_pin ~off:lo ~len:(I32.get t.cell_pin_off (i + 1) - lo);
        })
  in
  let nets =
    Array.init t.num_nets (fun n ->
        let lo = I32.get t.net_pin_off n in
        {
          Types.n_id = n;
          n_name = t.net_name.(n);
          n_weight = t.net_weight.(n);
          n_pins = I32.sub_array t.net_pin ~off:lo ~len:(I32.get t.net_pin_off (n + 1) - lo);
        })
  in
  let pins =
    Array.init t.num_pins (fun p ->
        {
          Types.p_id = p;
          p_cell = I32.get t.pin_cell p;
          p_net = I32.get t.pin_net p;
          p_dir = dir_of_code (I8.get t.pin_dir p);
          p_dx = F64.get t.pin_dx p;
          p_dy = F64.get t.pin_dy p;
        })
  in
  {
    Design.name = t.name;
    die = t.die;
    row_height = t.row_height;
    site_width = t.site_width;
    num_rows = t.num_rows;
    cells;
    nets;
    pins;
    x = Array.copy t.x;
    y = Array.copy t.y;
    orient = Array.copy t.orient;
    groups = t.groups;
  }

let num_cells t = t.num_cells
let num_nets t = t.num_nets
let num_pins t = t.num_pins
let net_degree t n = I32.uget t.net_pin_off (n + 1) - I32.uget t.net_pin_off n
let cell_degree t i = I32.uget t.cell_pin_off (i + 1) - I32.uget t.cell_pin_off i

let max_net_degree t =
  let m = ref 1 in
  for n = 0 to t.num_nets - 1 do
    let d = net_degree t n in
    if d > !m then m := d
  done;
  !m

let net_cell_degree t n = I32.uget t.net_cell_off (n + 1) - I32.uget t.net_cell_off n
let cell_net_degree t i = I32.uget t.cell_net_off (i + 1) - I32.uget t.cell_net_off i

let iter_cells_of_net t n f =
  for k = I32.get t.net_cell_off n to I32.get t.net_cell_off (n + 1) - 1 do
    f (I32.uget t.net_cell k)
  done

let iter_nets_of_cell t i f =
  for k = I32.get t.cell_net_off i to I32.get t.cell_net_off (i + 1) - 1 do
    f (I32.uget t.cell_net k)
  done

let cells_of_net t n =
  let lo = I32.get t.net_cell_off n in
  I32.sub_array t.net_cell ~off:lo ~len:(I32.get t.net_cell_off (n + 1) - lo)

let nets_of_cell t i =
  let lo = I32.get t.cell_net_off i in
  I32.sub_array t.cell_net ~off:lo ~len:(I32.get t.cell_net_off (i + 1) - lo)

let neighbors_of_cell t i ~max_net_degree =
  let seen = Hashtbl.create 16 in
  iter_nets_of_cell t i (fun n ->
      if net_cell_degree t n <= max_net_degree then
        iter_cells_of_net t n (fun c -> if c <> i then Hashtbl.replace seen c ()));
  Hashtbl.fold (fun c () acc -> c :: acc) seen [] |> List.sort compare

let oriented_dims t i = Orient.apply t.orient.(i) ~w:t.width.(i) ~h:t.height.(i)

let cell_rect t i =
  let w, h = oriented_dims t i in
  Rect.make ~xl:t.x.(i) ~yl:t.y.(i) ~xh:(t.x.(i) +. w) ~yh:(t.y.(i) +. h)

let cell_center_x t i = t.x.(i) +. (fst (oriented_dims t i) /. 2.0)
let cell_center_y t i = t.y.(i) +. (snd (oriented_dims t i) /. 2.0)
let row_y t r = Design.row_y_at ~die:t.die ~row_height:t.row_height r
let row_of_y t y = Design.row_at ~die:t.die ~row_height:t.row_height ~num_rows:t.num_rows y

let ids_where t keep =
  let acc = ref [] in
  for i = t.num_cells - 1 downto 0 do
    if keep i then acc := i :: !acc
  done;
  Array.of_list !acc

let movable_ids t = ids_where t (fun i -> not (is_fixed t i))
let fixed_ids t = ids_where t (is_fixed t)

let fixed_obstacles t =
  let acc = ref [] in
  for i = t.num_cells - 1 downto 0 do
    if I8.get t.kind i = kind_fixed then
      match Rect.intersection (cell_rect t i) t.die with
      | Some r -> acc := r :: !acc
      | None -> ()
  done;
  !acc

(* resident bytes of the compact (non-aliased) payloads, for the memory
   ledger and the bytes-per-cell accounting in DESIGN.md *)
let compact_bytes t =
  (4 * (I32.length t.cell_pin_off + I32.length t.cell_pin + I32.length t.net_pin_off
       + I32.length t.net_pin + I32.length t.pin_cell + I32.length t.pin_net
       + I32.length t.net_cell_off + I32.length t.net_cell + I32.length t.cell_net_off
       + I32.length t.cell_net))
  + I8.length t.kind + I8.length t.pin_dir
  + (8 * (F64.length t.pin_dx + F64.length t.pin_dy))
