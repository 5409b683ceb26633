module Soa = Dpp_netlist.Soa
module Rect = Dpp_geom.Rect

(* One Abacus cluster: [e] total weight, [w] total width, [q] the weighted
   sum of (target - offset) terms, [x] the placed left edge, [cells] in
   order. *)
type cluster = {
  mutable e : float;
  mutable q : float;
  mutable w : float;
  mutable x : float;
  mutable cells : int list;  (** reversed *)
}

let place ~lo ~hi c =
  let x = c.q /. c.e in
  c.x <- max lo (min (hi -. c.w) x)

let run (s : Soa.t) ?(extra_obstacles = []) ?(skip = fun _ -> false) ~target_cx
    ~(legal : Legal.t) () =
  let nc = Soa.num_cells s in
  (* group cells per row *)
  let per_row = Array.make s.Soa.num_rows [] in
  for i = nc - 1 downto 0 do
    let r = legal.Legal.assignment.(i) in
    if r >= 0 && not (skip i) then per_row.(r) <- i :: per_row.(r)
  done;
  let obstacles = extra_obstacles @ Soa.fixed_obstacles s in
  for r = 0 to s.Soa.num_rows - 1 do
    let segments = Legal.row_segments s obstacles r in
    (* assign each cell of the row to the segment containing its legalized
       position *)
    let cells_by_segment =
      List.map
        (fun (lo, hi) ->
          let mine =
            List.filter
              (fun i ->
                let w = s.Soa.width.(i) in
                let xl = legal.Legal.cx.(i) -. (w /. 2.0) in
                xl >= lo -. 1e-6 && xl +. w <= hi +. 1e-6)
              per_row.(r)
          in
          lo, hi, mine)
        segments
    in
    List.iter
      (fun (lo, hi, cells) ->
        (* order by GP target left edge *)
        let ordered =
          List.map
            (fun i ->
              let w = s.Soa.width.(i) in
              target_cx.(i) -. (w /. 2.0), w, i)
            cells
          |> List.sort compare
        in
        let stack = ref [] in
        List.iter
          (fun (xl_target, w, i) ->
            let c = { e = 1.0; q = xl_target; w; x = 0.0; cells = [ i ] } in
            place ~lo ~hi c;
            let rec collapse c =
              match !stack with
              | prev :: rest when prev.x +. prev.w > c.x +. 1e-9 ->
                (* merge c into prev *)
                prev.q <- prev.q +. c.q -. (c.e *. prev.w);
                prev.e <- prev.e +. c.e;
                prev.w <- prev.w +. c.w;
                prev.cells <- c.cells @ prev.cells;
                stack := rest;
                place ~lo ~hi prev;
                collapse prev
              | _ -> stack := c :: !stack
            in
            collapse c)
          ordered;
        (* emit positions, snapped to the site grid (relative to the die
           origin) with a left-to-right aligned cursor so no overlap can
           reappear; cell widths are site multiples so alignment is
           preserved along the row *)
        let site = s.Soa.site_width in
        let origin = s.Soa.die.Rect.xl in
        let align_up v = origin +. (ceil (((v -. origin) /. site) -. 1e-9) *. site) in
        let align_round v = origin +. (Float.round ((v -. origin) /. site) *. site) in
        let cursor = ref (align_up lo) in
        List.iter
          (fun cluster ->
            let start = max !cursor (align_round cluster.x) in
            (* pull back (aligned) if the cluster would stick out *)
            let start =
              if start +. cluster.w > hi +. 1e-9 then
                max !cursor (align_round (hi -. cluster.w) -. site)
              else start
            in
            cursor := start;
            List.iter
              (fun i ->
                let w = s.Soa.width.(i) in
                legal.Legal.cx.(i) <- !cursor +. (w /. 2.0);
                cursor := !cursor +. w)
              (List.rev cluster.cells))
          (List.rev !stack))
      cells_by_segment
  done
