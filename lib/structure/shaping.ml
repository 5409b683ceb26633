module Rect = Dpp_geom.Rect
module Soa = Dpp_netlist.Soa
module Pins = Dpp_wirelen.Pins
module Hpwl = Dpp_wirelen.Hpwl

type placed = { dgroup : Dgroup.t; origin_x : float; origin_y : float; rect : Rect.t }

let src = Logs.Src.create "dpp.shaping" ~doc:"group snapping"

module Log = (val Logs.src_log src : Logs.LOG)

let round_to ~step ~origin v = origin +. (Float.round ((v -. origin) /. step) *. step)

let collides rect obstacles = List.exists (Rect.overlaps rect) obstacles

let clamp_origin (s : Soa.t) (dg : Dgroup.t) ox oy =
  let die = s.Soa.die in
  let ox = max die.Rect.xl (min (die.Rect.xh -. dg.Dgroup.width) ox) in
  let oy = max die.Rect.yl (min (die.Rect.yh -. dg.Dgroup.height) oy) in
  let ox = round_to ~step:s.Soa.site_width ~origin:die.Rect.xl ox in
  let oy = round_to ~step:s.Soa.row_height ~origin:die.Rect.yl oy in
  let ox = if ox +. dg.Dgroup.width > die.Rect.xh then ox -. s.Soa.site_width else ox in
  let oy = if oy +. dg.Dgroup.height > die.Rect.yh then oy -. s.Soa.row_height else oy in
  max die.Rect.xl ox, max die.Rect.yl oy

let group_rect (dg : Dgroup.t) ox oy =
  Rect.make ~xl:ox ~yl:oy ~xh:(ox +. dg.Dgroup.width) ~yh:(oy +. dg.Dgroup.height)

(* HPWL of the nets incident to the group's members at the current
   coordinates. *)
let incident_nets soa (dg : Dgroup.t) =
  let seen = Hashtbl.create 256 in
  Array.iter
    (fun c -> Soa.iter_nets_of_cell soa c (fun n -> Hashtbl.replace seen n ()))
    dg.Dgroup.cells;
  Hashtbl.fold (fun n () acc -> n :: acc) seen []

let place_members (dg : Dgroup.t) ox oy ~cx ~cy =
  Array.iteri
    (fun i c ->
      cx.(c) <- ox +. dg.Dgroup.off_x.(i);
      cy.(c) <- oy +. dg.Dgroup.off_y.(i))
    dg.Dgroup.cells

(* Candidate origins: the clamped least-squares origin plus an outward
   spiral on the (site*8, row) lattice. *)
let candidates (s : Soa.t) (dg : Dgroup.t) ox oy obstacles ~max_radius ~max_count =
  let die = s.Soa.die in
  let xstep = 8.0 *. s.Soa.site_width in
  let ystep = s.Soa.row_height in
  let feasible ox oy =
    if
      ox >= die.Rect.xl -. 1e-9
      && oy >= die.Rect.yl -. 1e-9
      && ox +. dg.Dgroup.width <= die.Rect.xh +. 1e-9
      && oy +. dg.Dgroup.height <= die.Rect.yh +. 1e-9
    then begin
      let r = group_rect dg ox oy in
      if collides r obstacles then None else Some (ox, oy)
    end
    else None
  in
  let found = ref [] in
  let count = ref 0 in
  let radius = ref 0 in
  while !count < max_count && !radius <= max_radius do
    let r = !radius in
    let ring =
      if r = 0 then [ 0, 0 ]
      else begin
        let acc = ref [] in
        for i = -r to r do
          for j = -r to r do
            if max (abs i) (abs j) = r then acc := (i, j) :: !acc
          done
        done;
        List.rev !acc
      end
    in
    List.iter
      (fun (i, j) ->
        if !count < max_count then
          match feasible (ox +. (float_of_int i *. xstep)) (oy +. (float_of_int j *. ystep)) with
          | Some p ->
            found := p :: !found;
            incr count
          | None -> ())
      ring;
    incr radius
  done;
  List.rev !found

let snap ?(max_die_fraction = 0.25) ?(extra_obstacles = []) ~(pins : Pins.t) dgs ~cx ~cy =
  let s = pins.Pins.soa in
  let die_area = Rect.area s.Soa.die in
  let fixed = extra_obstacles @ Soa.fixed_obstacles s in
  let order =
    List.sort
      (fun a b -> compare (Array.length b.Dgroup.cells) (Array.length a.Dgroup.cells))
      dgs
  in
  let placed = ref [] in
  List.iter
    (fun dg ->
      let footprint = dg.Dgroup.width *. dg.Dgroup.height in
      if footprint > max_die_fraction *. die_area then
        Log.info (fun m ->
            m "group %s footprint %.0f exceeds %.0f%% of the die; left soft"
              dg.Dgroup.group.Dpp_netlist.Groups.g_name footprint (100.0 *. max_die_fraction))
      else begin
        let ox, oy = Dgroup.origin_of_positions dg ~cx ~cy in
        let ox, oy = clamp_origin s dg ox oy in
        let obstacles = fixed @ List.map (fun p -> p.rect) !placed in
        let cands = candidates s dg ox oy obstacles ~max_radius:12 ~max_count:48 in
        let nets = incident_nets s dg in
        let eval () = List.fold_left (fun acc n -> acc +. Hpwl.net pins ~cx ~cy n) 0.0 nets in
        (* save member positions once; trial each candidate in place *)
        let saved =
          Array.map (fun c -> cx.(c), cy.(c)) dg.Dgroup.cells
        in
        let restore () =
          Array.iteri
            (fun i c ->
              let x, y = saved.(i) in
              cx.(c) <- x;
              cy.(c) <- y)
            dg.Dgroup.cells
        in
        let best = ref None in
        List.iter
          (fun (cox, coy) ->
            place_members dg cox coy ~cx ~cy;
            let cost = eval () in
            (match !best with
            | Some (bc, _, _) when bc <= cost -> ()
            | Some _ | None -> best := Some (cost, cox, coy));
            restore ())
          cands;
        let ox, oy =
          match !best with
          | Some (_, bx, by) -> bx, by
          | None ->
            Log.warn (fun m ->
                m "no overlap-free spot for group %s; leaving it clamped"
                  dg.Dgroup.group.Dpp_netlist.Groups.g_name);
            ox, oy
        in
        (* commit member positions now so later groups' candidate scoring
           sees this group where it will actually be *)
        place_members dg ox oy ~cx ~cy;
        placed :=
          { dgroup = dg; origin_x = ox; origin_y = oy; rect = group_rect dg ox oy } :: !placed
      end)
    order;
  List.rev !placed

let apply p ~cx ~cy = place_members p.dgroup p.origin_x p.origin_y ~cx ~cy

let obstacles placed = List.map (fun p -> p.rect) placed
