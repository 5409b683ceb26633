module Rng = Dpp_util.Rng
module I32 = Dpp_util.Compact.I32
module I8 = Dpp_util.Compact.I8
module F64 = Dpp_util.Compact.F64
module Rect = Dpp_geom.Rect
module Types = Dpp_netlist.Types
module Design = Dpp_netlist.Design
module Soa = Dpp_netlist.Soa
module Dgroup = Dpp_structure.Dgroup

let src = Logs.Src.create "dpp.coarsen" ~doc:"multilevel coarsening"

module Log = (val Logs.src_log src : Logs.LOG)

type level = {
  fine : Soa.t;
  coarse : Soa.t;
  cluster_of : int array;
  members : int array array;
  group_of : (int * Dgroup.t) list;
  protected : bool array;
}

(* nets wider than this are control/clock-like: they connect everything
   to everything and would make every pair look like a heavy edge *)
let max_net_degree = 16

let cell_area (s : Soa.t) i = s.Soa.width.(i) *. s.Soa.height.(i)

(* Merged clusters keep the exact member area; the shape spreads over
   just enough rows that no cluster grows wider than half the die. *)
let cluster_shape (s : Soa.t) ~area =
  let die_w = Rect.width s.Soa.die in
  let rh = s.Soa.row_height in
  let rows = max 1 (int_of_float (ceil (area /. rh /. (0.5 *. die_w)))) in
  let h = float_of_int rows *. rh in
  area /. h, h

(* Per-level scratch comes from the caller's arena when one is given:
   the V-cycle builds levels strictly one after another, so each level's
   matching buffers recycle the previous level's instead of piling up
   garbage for the major GC to find mid-coarsening. *)
let scratch_ints ?arena key n =
  match arena with Some a -> Dpp_util.Arena.ints a key n | None -> Array.make n 0

let scratch_floats ?arena key n =
  match arena with Some a -> Dpp_util.Arena.floats a key n | None -> Array.make n 0.0

let coarsen_once ?arena ~rng ~groups ~protect ~area_cap_factor (fine : Soa.t) =
  let nc = Soa.num_cells fine in
  let cluster_of = Array.make nc (-1) in
  let next = ref 0 in
  let new_cluster () =
    let c = !next in
    incr next;
    c
  in
  (* 1. structure-aware seeds: each datapath group collapses into one
     cluster, so a bit-slice is never split across clusters *)
  let group_of = ref [] in
  List.iter
    (fun (dg : Dgroup.t) ->
      let eligible =
        Array.length dg.Dgroup.cells > 0
        && Array.for_all
             (fun c ->
               cluster_of.(c) < 0 && (not (protect c)) && not (Soa.is_fixed fine c))
             dg.Dgroup.cells
      in
      if eligible then begin
        let cid = new_cluster () in
        Array.iter (fun c -> cluster_of.(c) <- cid) dg.Dgroup.cells;
        group_of := (cid, dg) :: !group_of
      end
      else
        Log.debug (fun m ->
            m "group with %d cells not clustered (overlap or fixed member)"
              (Array.length dg.Dgroup.cells)))
    groups;
  let group_of = List.rev !group_of in
  (* 2. heavy-edge matching over the remaining movables, visited in a
     seeded shuffle; ties break on the lower cell id so the result is a
     pure function of (design, groups, seed) *)
  let movable = Soa.movable_ids fine in
  let free = Array.of_list (List.filter (fun i -> cluster_of.(i) < 0) (Array.to_list movable)) in
  let mean_area =
    if Array.length movable = 0 then 1.0
    else
      Array.fold_left (fun acc i -> acc +. cell_area fine i) 0.0 movable
      /. float_of_int (Array.length movable)
  in
  let area_cap = area_cap_factor *. mean_area in
  let order = Array.copy free in
  Rng.shuffle rng order;
  let protected_src = Array.make nc false in
  (* candidate scores live in a flat array indexed by cell id, with a
     per-u stamp (the id of the seed that last touched the slot) instead
     of clearing between seeds — the Hashtbl this replaces dominated the
     matching pass on 100k+ cell designs.  The winner rule (max score,
     lower id on ties) has a unique answer, so scanning the touched list
     in insertion order picks the same mate the unordered fold did. *)
  let score = scratch_floats ?arena "coarsen.score" nc in
  let stamp = scratch_ints ?arena "coarsen.stamp" nc in
  (* a recycled stamp buffer holds stale cell ids, which are exactly the
     values the stamping scheme uses — reset to the impossible seed *)
  Array.fill stamp 0 nc (-1);
  let touched = ref (Array.make 256 0) in
  let n_touched = ref 0 in
  let push v =
    if !n_touched = Array.length !touched then begin
      let bigger = Array.make (2 * !n_touched) 0 in
      Array.blit !touched 0 bigger 0 !n_touched;
      touched := bigger
    end;
    !touched.(!n_touched) <- v;
    incr n_touched
  in
  Array.iter
    (fun u ->
      if cluster_of.(u) < 0 then
        if protect u then begin
          (* clusters formed at an earlier level stay intact: singleton *)
          let cid = new_cluster () in
          cluster_of.(u) <- cid;
          protected_src.(u) <- true
        end
        else begin
          n_touched := 0;
          let a_u = cell_area fine u in
          Soa.iter_nets_of_cell fine u (fun n ->
              let deg = Soa.net_cell_degree fine n in
              if deg >= 2 && deg <= max_net_degree then begin
                let w = fine.Soa.net_weight.(n) /. float_of_int (deg - 1) in
                Soa.iter_cells_of_net fine n (fun v ->
                    if
                      v <> u
                      && cluster_of.(v) < 0
                      && (not (protect v))
                      && (not (Soa.is_fixed fine v))
                      && a_u +. cell_area fine v <= area_cap
                    then begin
                      if stamp.(v) <> u then begin
                        stamp.(v) <- u;
                        score.(v) <- 0.0;
                        push v
                      end;
                      score.(v) <- w +. score.(v)
                    end)
              end);
          let best_v = ref (-1) in
          let best_s = ref 0.0 in
          for t = 0 to !n_touched - 1 do
            let v = (!touched).(t) in
            let s = score.(v) in
            if !best_v < 0 || not (!best_s > s || (Float.equal !best_s s && !best_v < v))
            then begin
              best_v := v;
              best_s := s
            end
          done;
          let cid = new_cluster () in
          cluster_of.(u) <- cid;
          if !best_v >= 0 then cluster_of.(!best_v) <- cid
        end)
    order;
  (* 3. fixed cells and pads are preserved one-to-one *)
  for i = 0 to nc - 1 do
    if Soa.is_fixed fine i then cluster_of.(i) <- new_cluster ()
  done;
  let k = !next in
  let counts = scratch_ints ?arena "coarsen.counts" k in
  Array.iter (fun cid -> counts.(cid) <- counts.(cid) + 1) cluster_of;
  let members = Array.init k (fun cid -> Array.make counts.(cid) (-1)) in
  let fill = scratch_ints ?arena "coarsen.fill" k in
  for i = 0 to nc - 1 do
    let cid = cluster_of.(i) in
    members.(cid).(fill.(cid)) <- i;
    fill.(cid) <- fill.(cid) + 1
  done;
  (* 4. the coarse cells: one per cluster, ids equal cluster ids.  A
     singleton copies its fine cell; a merged cluster is a movable
     ["cluster"] centered on the die, with its group's array footprint or
     its members' area *)
  let die = fine.Soa.die in
  let group_dims = Array.make k None in
  List.iter
    (fun (cid, (dg : Dgroup.t)) -> group_dims.(cid) <- Some (dg.Dgroup.width, dg.Dgroup.height))
    group_of;
  let pick single merged =
    Array.init k (fun cid -> match members.(cid) with [| i |] -> single i | _ -> merged cid)
  in
  let shape =
    pick
      (fun i -> fine.Soa.width.(i), fine.Soa.height.(i))
      (fun cid ->
        match group_dims.(cid) with
        | Some dims -> dims
        | None ->
          let ms = members.(cid) in
          cluster_shape fine ~area:(Array.fold_left (fun a i -> a +. cell_area fine i) 0.0 ms))
  in
  let width = Array.map fst shape and height = Array.map snd shape in
  let centered lo hi w = ((lo +. hi) /. 2.0) -. (w /. 2.0) in
  let x = pick (fun i -> fine.Soa.x.(i)) (fun c -> centered die.Rect.xl die.Rect.xh width.(c)) in
  let y = pick (fun i -> fine.Soa.y.(i)) (fun c -> centered die.Rect.yl die.Rect.yh height.(c)) in
  let kind = I8.make k Soa.kind_movable in
  Array.iteri
    (fun cid ms -> match ms with [| i |] -> I8.set kind cid (I8.get fine.Soa.kind i) | _ -> ())
    members;
  let protected = pick (fun i -> protected_src.(i)) (fun cid -> group_dims.(cid) <> None) in
  (* 5. coarse nets: one net per distinct incident-cluster set (weights
     merged), one center pin per (net, cluster); single-cluster nets are
     internal and vanish.  Keys are visited in first-seen order over the
     ascending fine nets, so net ids are deterministic too. *)
  let net_keys = Hashtbl.create (Soa.num_nets fine) in
  let key_order = ref [] in
  for n = 0 to Soa.num_nets fine - 1 do
    let cs = ref [] in
    Soa.iter_cells_of_net fine n (fun c -> cs := cluster_of.(c) :: !cs);
    match List.sort_uniq compare !cs with
    | [] | [ _ ] -> ()
    | cs -> (
      let w = fine.Soa.net_weight.(n) in
      match Hashtbl.find_opt net_keys cs with
      | Some acc -> Hashtbl.replace net_keys cs (acc +. w)
      | None ->
        Hashtbl.add net_keys cs w;
        key_order := cs :: !key_order)
  done;
  let keys = Array.of_list (List.rev !key_order) in
  let nn = Array.length keys in
  (* pins are numbered net by net, clusters ascending within a net *)
  let net_pin_off, net_pin =
    Soa.csr nn
      ~len:(fun j -> List.length keys.(j))
      ~fill:(fun j dst off -> List.iteri (fun t _ -> I32.set dst (off + t) (off + t)) keys.(j))
  in
  let np = I32.get net_pin_off nn in
  let pin_cell = I32.make (max 1 np) 0 and pin_net = I32.make (max 1 np) 0 in
  let pins_of = Array.make k [] in
  Array.iteri
    (fun j cs ->
      List.iteri
        (fun t cid ->
          let p = I32.get net_pin_off j + t in
          I32.set pin_cell p cid;
          I32.set pin_net p j;
          pins_of.(cid) <- p :: pins_of.(cid))
        cs)
    keys;
  let cell_pin_off, cell_pin =
    Soa.csr k
      ~len:(fun c -> List.length pins_of.(c))
      ~fill:(fun c dst off ->
        List.iteri (fun t p -> I32.set dst (off + t) p) (List.rev pins_of.(c)))
  in
  (* a center pin sits at half the cell's unoriented extent *)
  let half dim =
    let a = F64.make (max 1 np) 0.0 in
    for p = 0 to np - 1 do
      F64.set a p (dim.(I32.get pin_cell p) /. 2.0)
    done;
    a
  in
  let coarse =
    Soa.make ~name:(fine.Soa.name ^ "#") ~die ~row_height:fine.Soa.row_height
      ~site_width:fine.Soa.site_width ~num_rows:fine.Soa.num_rows
      ~cell_name:(pick (fun i -> fine.Soa.cell_name.(i)) (fun _ -> "cluster"))
      ~cell_master:(pick (fun i -> fine.Soa.cell_master.(i)) (fun _ -> "cluster"))
      ~width ~height ~kind ~x ~y
      ~orient:(pick (fun i -> fine.Soa.orient.(i)) (fun _ -> Dpp_geom.Orient.N))
      ~cell_pin_off ~cell_pin ~net_name:(Array.make nn "")
      ~net_weight:(Array.map (Hashtbl.find net_keys) keys)
      ~net_pin_off ~net_pin ~pin_cell ~pin_net
      ~pin_dir:(I8.make (max 1 np) (Soa.code_of_dir Types.Inout))
      ~pin_dx:(half width) ~pin_dy:(half height) ~groups:[]
  in
  { fine; coarse; cluster_of; members; group_of; protected }

(* Size of the largest connected component of movable cells (connectivity
   through nets of any degree).  PEKO-style benches decompose into
   thousands of tiny islands; heavy-edge matching over such dust produces
   near-random clusters and the V-cycle then amplifies rather than
   reduces the wirelength gap (the 33.8x PEKO regression).  When even
   the largest island is at or below the flat-GP floor, coarsening has
   nothing to exploit and [build] falls back to flat GP. *)
let largest_movable_component (s : Soa.t) =
  let nc = Soa.num_cells s in
  if nc = 0 then 0
  else begin
    let uf = Dpp_util.Union_find.create nc in
    for n = 0 to Soa.num_nets s - 1 do
      let lo = I32.get s.Soa.net_cell_off n in
      for k = lo + 1 to I32.get s.Soa.net_cell_off (n + 1) - 1 do
        Dpp_util.Union_find.union uf (I32.get s.Soa.net_cell lo) (I32.get s.Soa.net_cell k)
      done
    done;
    let counts = Array.make nc 0 in
    let best = ref 0 in
    Array.iter
      (fun i ->
        let r = Dpp_util.Union_find.find uf i in
        counts.(r) <- counts.(r) + 1;
        if counts.(r) > !best then best := counts.(r))
      (Soa.movable_ids s);
    !best
  end

let of_soa ?arena ?(groups = []) ?(min_cells = 500) ?(max_levels = 3)
    ?(area_cap_factor = 4.0) ~seed (root : Soa.t) =
  let rng = Rng.create (seed lxor 0x436f6172) in
  let rec go acc depth fine groups protect =
    let n_mov = Array.length (Soa.movable_ids fine) in
    if depth >= max_levels || n_mov <= min_cells then List.rev acc
    else begin
      let lvl = coarsen_once ?arena ~rng:(Rng.split rng) ~groups ~protect ~area_cap_factor fine in
      let n_coarse = Array.length (Soa.movable_ids lvl.coarse) in
      Log.info (fun m ->
          m "level %d: %d -> %d movables (%d group clusters)" (depth + 1) n_mov n_coarse
            (List.length lvl.group_of));
      if float_of_int n_coarse > 0.9 *. float_of_int n_mov then List.rev acc
      else go (lvl :: acc) (depth + 1) lvl.coarse [] (fun i -> lvl.protected.(i))
    end
  in
  let n_mov = Array.length (Soa.movable_ids root) in
  if n_mov > min_cells then begin
    let lcc = largest_movable_component root in
    if lcc <= min_cells then begin
      Log.info (fun m ->
          m "disconnected design: largest movable component %d <= %d; flat GP fallback" lcc
            min_cells);
      []
    end
    else go [] 0 root groups (fun _ -> false)
  end
  else go [] 0 root groups (fun _ -> false)

let build ~groups ~min_cells ~max_levels ~seed (d : Design.t) =
  of_soa ~groups ~min_cells ~max_levels ~seed (Soa.of_design d)

let cluster_centers ?arena (lvl : level) ~cx ~cy =
  let k = Soa.num_cells lvl.coarse in
  (* keyed by the coarse netlist's name, which encodes the level depth
     ("name#", "name##", ...) — each level of one V-cycle holds its own
     buffer, while repeated V-cycles over one hierarchy recycle.  Every
     slot is written below, so the raw (non-zeroing) variant is safe:
     the recycled buffer can never be this call's [cx]/[cy] input (those
     live under different keys or outside the arena). *)
  let raw key n =
    match arena with
    | Some a -> Dpp_util.Arena.floats_raw a key n
    | None -> Array.make n 0.0
  in
  let ccx = raw ("coarsen.ccx:" ^ lvl.coarse.Soa.name) k
  and ccy = raw ("coarsen.ccy:" ^ lvl.coarse.Soa.name) k in
  for cid = 0 to k - 1 do
    let ms = lvl.members.(cid) in
    if Array.length ms = 1 then begin
      ccx.(cid) <- cx.(ms.(0));
      ccy.(cid) <- cy.(ms.(0))
    end
    else begin
      let area = ref 0.0 and sx = ref 0.0 and sy = ref 0.0 in
      Array.iter
        (fun i ->
          let a = cell_area lvl.fine i in
          area := !area +. a;
          sx := !sx +. (a *. cx.(i));
          sy := !sy +. (a *. cy.(i)))
        ms;
      let a = if !area > 0.0 then !area else 1.0 in
      ccx.(cid) <- !sx /. a;
      ccy.(cid) <- !sy /. a
    end
  done;
  ccx, ccy

let interpolate (lvl : level) ~ccx ~ccy ~cx ~cy =
  let die = lvl.fine.Soa.die in
  let is_group = Array.make (Soa.num_cells lvl.coarse) false in
  List.iter (fun (cid, _) -> is_group.(cid) <- true) lvl.group_of;
  (* group clusters re-seed their members in bit order at the idealized
     array offsets from the solved cluster center *)
  List.iter
    (fun (cid, (dg : Dgroup.t)) ->
      let w = dg.Dgroup.width and h = dg.Dgroup.height in
      let ox = ccx.(cid) -. (w /. 2.0) and oy = ccy.(cid) -. (h /. 2.0) in
      let ox = min (max ox die.Rect.xl) (max die.Rect.xl (die.Rect.xh -. w)) in
      let oy = min (max oy die.Rect.yl) (max die.Rect.yl (die.Rect.yh -. h)) in
      Array.iteri
        (fun k i ->
          cx.(i) <- ox +. dg.Dgroup.off_x.(k);
          cy.(i) <- oy +. dg.Dgroup.off_y.(k))
        dg.Dgroup.cells)
    lvl.group_of;
  Array.iteri
    (fun cid ms ->
      if (not is_group.(cid)) && not (Soa.is_fixed lvl.coarse cid) then
        Array.iter
          (fun i ->
            let hw = lvl.fine.Soa.width.(i) /. 2.0 and hh = lvl.fine.Soa.height.(i) /. 2.0 in
            cx.(i) <- min (max ccx.(cid) (die.Rect.xl +. hw)) (die.Rect.xh -. hw);
            cy.(i) <- min (max ccy.(cid) (die.Rect.yl +. hh)) (die.Rect.yh -. hh))
          ms)
    lvl.members
