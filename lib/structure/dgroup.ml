module Soa = Dpp_netlist.Soa
module Groups = Dpp_netlist.Groups
module Rect = Dpp_geom.Rect
module I32 = Dpp_util.Compact.I32

type t = {
  group : Groups.t;
  cells : int array;
  off_x : float array;
  off_y : float array;
  width : float;
  height : float;
}

let build ?stage_order ?slice_order ?fold (s : Soa.t) g =
  let slices = Groups.num_slices g and stages = Groups.num_stages g in
  let stage_order = Option.value stage_order ~default:(Array.init stages Fun.id) in
  let slice_order = Option.value slice_order ~default:(Array.init slices Fun.id) in
  (* column widths, indexed by array column (i.e. after reordering) *)
  let col_w = Array.make stages 0.0 in
  for sl = 0 to slices - 1 do
    for k = 0 to stages - 1 do
      let c = g.Groups.g_rows.(sl).(k) in
      if c >= 0 then begin
        let col = stage_order.(k) in
        col_w.(col) <- max col_w.(col) s.Soa.width.(c)
      end
    done
  done;
  let spacing = s.Soa.site_width in
  let row_height = s.Soa.row_height and die = s.Soa.die in
  (* stages pack tight: an airy array wastes row capacity and starves the
     legalizer around it *)
  let col_x = Array.make stages 0.0 in
  let cursor = ref 0.0 in
  for col = 0 to stages - 1 do
    col_x.(col) <- !cursor;
    cursor := !cursor +. col_w.(col)
  done;
  let block_w = max spacing !cursor in
  (* Folding: tall thin arrays (many slices, few stages) become walls that
     wreck the surrounding placement, so wide datapaths are folded into
     [fold] column blocks of ceil(slices/fold) rows each, serpentine so a
     carry chain crossing the fold stays on adjacent rows.  The default
     fold balances the footprint's aspect ratio. *)
  let fold =
    match fold with
    | Some f -> max 1 f
    | None ->
      let h1 = float_of_int slices *. row_height in
      let f = int_of_float (Float.round (sqrt (h1 /. max 1.0 block_w))) in
      (* cap the folded height at ~a third of the die so one array cannot
         wall off the floorplan, and cap the width at ~90% of the die so
         wide merged groups still fit *)
      let rows_cap =
        max 2 (int_of_float (0.35 *. Rect.height die /. row_height))
      in
      let f_min = (slices + rows_cap - 1) / rows_cap in
      let f_max_width =
        let pitch = block_w +. (2.0 *. spacing) in
        max 1 (int_of_float (floor ((0.9 *. Rect.width die) /. pitch)))
      in
      max 1 (min (min (max f f_min) f_max_width) (max 1 (slices / 2)))
  in
  let rows = (slices + fold - 1) / fold in
  let block_pitch = block_w +. (2.0 *. spacing) in
  let width = (float_of_int fold *. block_pitch) -. (2.0 *. spacing) in
  let height = float_of_int rows *. row_height in
  let row_of_slot slot =
    let b = slot / rows in
    let r = slot mod rows in
    if b mod 2 = 0 then r else rows - 1 - r
  in
  let cells = ref [] and offs = ref [] in
  for sl = 0 to slices - 1 do
    for k = 0 to stages - 1 do
      let c = g.Groups.g_rows.(sl).(k) in
      if c >= 0 then begin
        let slot = slice_order.(sl) in
        let b = slot / rows in
        let row = row_of_slot slot in
        let ox =
          (float_of_int b *. block_pitch)
          +. col_x.(stage_order.(k))
          +. (s.Soa.width.(c) /. 2.0)
        in
        let oy = (float_of_int row *. row_height) +. (s.Soa.height.(c) /. 2.0) in
        cells := c :: !cells;
        offs := (ox, oy) :: !offs
      end
    done
  done;
  let cells = Array.of_list (List.rev !cells) in
  if Array.length cells = 0 then invalid_arg "Dgroup.build: empty group";
  let offs = Array.of_list (List.rev !offs) in
  {
    group = g;
    cells;
    off_x = Array.map fst offs;
    off_y = Array.map snd offs;
    width;
    height;
  }

type regularity = { coupling : float; slice_span : float }

let regularity (s : Soa.t) groups =
  let ix = Groups.index groups in
  let ptr = ix.Groups.ix_ptr and grp = ix.Groups.ix_group and slc = ix.Groups.ix_slice in
  let ncells = Array.length ptr - 1 and ng = List.length groups in
  let intra = Array.make ng 0 and boundary = Array.make ng 0 in
  let total = Array.make ng 0.0 and count = Array.make ng 0 in
  (* per-net scratch, valid for group [g] while [seen.(g)] is the net id *)
  let seen = Array.make ng (-1) and inside = Array.make ng 0 in
  let smin = Array.make ng 0 and smax = Array.make ng 0 in
  let touched = Array.make ng 0 in
  for n = 0 to Soa.num_nets s - 1 do
    let ntouched = ref 0 in
    for q = I32.get s.Soa.net_pin_off n to I32.get s.Soa.net_pin_off (n + 1) - 1 do
      let c = I32.get s.Soa.pin_cell (I32.get s.Soa.net_pin q) in
      if c < ncells then
        for k = ptr.(c) to ptr.(c + 1) - 1 do
          let g = grp.(k) and sl = slc.(k) in
          if seen.(g) <> n then begin
            seen.(g) <- n;
            inside.(g) <- 0;
            smin.(g) <- sl;
            smax.(g) <- sl;
            touched.(!ntouched) <- g;
            incr ntouched
          end;
          inside.(g) <- inside.(g) + 1;
          if sl < smin.(g) then smin.(g) <- sl;
          if sl > smax.(g) then smax.(g) <- sl
        done
    done;
    (* groups are visited in net order, so each float total sums in the
       same order as a per-group scan over the nets *)
    for k = 0 to !ntouched - 1 do
      let g = touched.(k) in
      if inside.(g) = Soa.net_degree s n then begin
        intra.(g) <- intra.(g) + inside.(g);
        total.(g) <- total.(g) +. float_of_int (smax.(g) - smin.(g));
        count.(g) <- count.(g) + 1
      end
      else boundary.(g) <- boundary.(g) + inside.(g)
    done
  done;
  List.init ng (fun g ->
      {
        coupling = float_of_int intra.(g) /. float_of_int (max 1 (intra.(g) + boundary.(g)));
        slice_span = (if count.(g) = 0 then 0.0 else total.(g) /. float_of_int count.(g));
      })

let of_movable_macro (s : Soa.t) i =
  if Soa.is_fixed s i then invalid_arg "Dgroup.of_movable_macro: fixed cell";
  let w = s.Soa.width.(i) and h = s.Soa.height.(i) in
  {
    group = Groups.make s.Soa.cell_name.(i) [| [| i |] |];
    cells = [| i |];
    off_x = [| w /. 2.0 |];
    off_y = [| h /. 2.0 |];
    width = w;
    height = h;
  }

let movable_macros (s : Soa.t) =
  Array.to_list (Soa.movable_ids s)
  |> List.filter (fun i -> s.Soa.height.(i) > s.Soa.row_height +. 1e-9)

let src = Logs.Src.create "dpp.structure" ~doc:"datapath structure handling"

module Log = (val Logs.src_log src : Logs.LOG)

let fits (s : Soa.t) g dg =
  let die = s.Soa.die in
  if dg.width > Rect.width die || dg.height > Rect.height die then begin
    Log.warn (fun m ->
        m "group %s (%.0fx%.0f) larger than the die; dropping its alignment"
          g.Groups.g_name dg.width dg.height);
    false
  end
  else true

let build_all (s : Soa.t) groups =
  List.filter_map
    (fun g ->
      let dg = build s g in
      if fits s g dg then Some dg else None)
    groups

(* Greedy chain ordering: repeatedly attach, at either end of the path, the
   unplaced node most strongly connected to that end.  [w] is a symmetric
   dense weight matrix.  Returns a permutation: order.(node) = position. *)
let chain_order w n =
  if n = 1 then [| 0 |]
  else begin
    let placed = Array.make n false in
    (* start at the node with the largest total weight (a hub of the
       dataflow), ties to the lowest index for determinism *)
    let total k = Array.fold_left ( +. ) 0.0 w.(k) in
    let start = ref 0 in
    for k = 1 to n - 1 do
      if total k > total !start then start := k
    done;
    placed.(!start) <- true;
    let path = ref [ !start ] in
    (* path kept as list, head = left end; we track both ends *)
    for _ = 2 to n do
      let head = List.hd !path in
      let tail = List.nth !path (List.length !path - 1) in
      let best = ref None in
      for k = 0 to n - 1 do
        if not placed.(k) then begin
          let wh = w.(head).(k) and wt = w.(tail).(k) in
          let cand = if wh >= wt then wh, `Head, k else wt, `Tail, k in
          match !best, cand with
          | None, _ -> best := Some cand
          | Some (bw, _, _), (cw, _, _) when cw > bw -> best := Some cand
          | Some _, _ -> ()
        end
      done;
      match !best with
      | Some (_, `Head, k) ->
        placed.(k) <- true;
        path := k :: !path
      | Some (_, `Tail, k) ->
        placed.(k) <- true;
        path := !path @ [ k ]
      | None -> ()
    done;
    let order = Array.make n 0 in
    List.iteri (fun pos k -> order.(k) <- pos) !path;
    order
  end

(* Pearson sign between chain position and the mean coordinate: a negative
   correlation means the chain runs against the initial placement (and
   against any bus-connected neighbour group), so flip it. *)
let orient order means n =
  let fpos = Array.init n (fun k -> float_of_int order.(k)) in
  if Dpp_util.Statx.pearson fpos means < 0.0 then
    Array.map (fun p -> n - 1 - p) order
  else order

(* Inter-column / inter-row connection weights from the nets touching the
   group; each net contributes 1/(k-1) per pair to keep big nets gentle. *)
let connection_weights (s : Soa.t) g =
  let slices = Groups.num_slices g and stages = Groups.num_stages g in
  let stage_of = Hashtbl.create 64 and slice_of = Hashtbl.create 64 in
  for sl = 0 to slices - 1 do
    for k = 0 to stages - 1 do
      let c = g.Groups.g_rows.(sl).(k) in
      if c >= 0 then begin
        Hashtbl.replace stage_of c k;
        Hashtbl.replace slice_of c sl
      end
    done
  done;
  let w_stage = Array.make_matrix stages stages 0.0 in
  let w_slice = Array.make_matrix slices slices 0.0 in
  for n = 0 to Soa.num_nets s - 1 do
    (* the net's distinct cells ascending: the members' order is the
       accumulation order below *)
    let members =
      Array.to_list (Soa.cells_of_net s n)
      |> List.filter_map (fun c ->
             match Hashtbl.find_opt stage_of c, Hashtbl.find_opt slice_of c with
             | Some k, Some sl -> Some (c, k, sl)
             | _, _ -> None)
    in
    let m = List.length members in
    if m >= 2 then begin
      let inc = 1.0 /. float_of_int (m - 1) in
      List.iter
        (fun (c1, k1, s1) ->
          List.iter
            (fun (c2, k2, s2) ->
              if c1 < c2 then begin
                if k1 <> k2 then begin
                  w_stage.(k1).(k2) <- w_stage.(k1).(k2) +. inc;
                  w_stage.(k2).(k1) <- w_stage.(k2).(k1) +. inc
                end;
                if s1 <> s2 then begin
                  w_slice.(s1).(s2) <- w_slice.(s1).(s2) +. inc;
                  w_slice.(s2).(s1) <- w_slice.(s2).(s1) +. inc
                end
              end)
            members)
        members
    end
  done;
  w_stage, w_slice

let axis_means g ~cx ~cy =
  let slices = Groups.num_slices g and stages = Groups.num_stages g in
  let stage_mean = Array.make stages 0.0 and stage_n = Array.make stages 0 in
  let slice_mean = Array.make slices 0.0 and slice_n = Array.make slices 0 in
  for s = 0 to slices - 1 do
    for k = 0 to stages - 1 do
      let c = g.Groups.g_rows.(s).(k) in
      if c >= 0 then begin
        stage_mean.(k) <- stage_mean.(k) +. cx.(c);
        stage_n.(k) <- stage_n.(k) + 1;
        slice_mean.(s) <- slice_mean.(s) +. cy.(c);
        slice_n.(s) <- slice_n.(s) + 1
      end
    done
  done;
  for k = 0 to stages - 1 do
    if stage_n.(k) > 0 then stage_mean.(k) <- stage_mean.(k) /. float_of_int stage_n.(k)
  done;
  for s = 0 to slices - 1 do
    if slice_n.(s) > 0 then slice_mean.(s) <- slice_mean.(s) /. float_of_int slice_n.(s)
  done;
  stage_mean, slice_mean

let build_all_ordered (s : Soa.t) groups ~cx ~cy =
  List.filter_map
    (fun g ->
      let slices = Groups.num_slices g and stages = Groups.num_stages g in
      let w_stage, w_slice = connection_weights s g in
      let stage_mean, slice_mean = axis_means g ~cx ~cy in
      let stage_order = orient (chain_order w_stage stages) stage_mean stages in
      let slice_order = orient (chain_order w_slice slices) slice_mean slices in
      let dg = build ~stage_order ~slice_order s g in
      if fits s g dg then Some dg else None)
    groups

let origin_of_positions t ~cx ~cy =
  let n = Array.length t.cells in
  let sx = ref 0.0 and sy = ref 0.0 in
  for i = 0 to n - 1 do
    let c = t.cells.(i) in
    sx := !sx +. (cx.(c) -. t.off_x.(i));
    sy := !sy +. (cy.(c) -. t.off_y.(i))
  done;
  !sx /. float_of_int n, !sy /. float_of_int n

let alignment_error t ~cx ~cy =
  let gx, gy = origin_of_positions t ~cx ~cy in
  let n = Array.length t.cells in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let c = t.cells.(i) in
    let dx = cx.(c) -. (gx +. t.off_x.(i)) in
    let dy = cy.(c) -. (gy +. t.off_y.(i)) in
    acc := !acc +. (dx *. dx) +. (dy *. dy)
  done;
  sqrt (!acc /. float_of_int n)
