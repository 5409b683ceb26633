module Rect = Dpp_geom.Rect
module Types = Dpp_netlist.Types
module Design = Dpp_netlist.Design
module Validate = Dpp_netlist.Validate
module Bookshelf = Dpp_netlist.Bookshelf
module Groups = Dpp_netlist.Groups
module Pins = Dpp_wirelen.Pins
module Netbox = Dpp_wirelen.Netbox
module Model = Dpp_wirelen.Model
module Par_grad = Dpp_wirelen.Par_grad
module Dgroup = Dpp_structure.Dgroup
module Legality = Dpp_place.Legality
module Rng = Dpp_util.Rng

let cell_name d i = (Design.cell d i).Types.c_name

let finite d ~cx ~cy =
  Array.fold_left
    (fun acc i ->
      let bad v axis =
        Violation.v ~oracle:"finite"
          ~subject:(Printf.sprintf "cell %s" (cell_name d i))
          "%s coordinate is %s" axis
          (if Float.is_nan v then "NaN" else "infinite")
      in
      let acc = if Float.is_finite cx.(i) then acc else bad cx.(i) "x" :: acc in
      if Float.is_finite cy.(i) then acc else bad cy.(i) "y" :: acc)
    []
    (Design.movable_ids d)
  |> List.rev

let of_legality ~oracle d violation =
  let subj i = Printf.sprintf "cell %s" (cell_name d i) in
  match violation with
  | Legality.Outside i -> Violation.v ~oracle ~subject:(subj i) "lies outside the die"
  | Legality.Off_row i -> Violation.v ~oracle ~subject:(subj i) "bottom edge is off-row"
  | Legality.Off_site i -> Violation.v ~oracle ~subject:(subj i) "is off the site grid"
  | Legality.Overlap (i, j) ->
    Violation.v ~oracle ~subject:(subj i) "overlaps movable cell %s" (cell_name d j)
  | Legality.Overlaps_fixed (i, j) ->
    Violation.v ~oracle ~subject:(subj i) "overlaps fixed cell %s" (cell_name d j)

let audit ?tolerance ~oracle ~keep d ~cx ~cy =
  Legality.check ?tolerance d ~cx ~cy
  |> List.filter keep
  |> List.map (of_legality ~oracle d)

let overlap_bounds ?tolerance d ~cx ~cy =
  audit ?tolerance ~oracle:"overlap-bounds"
    ~keep:(function
      | Legality.Outside _ | Legality.Overlap _ | Legality.Overlaps_fixed _ -> true
      | Legality.Off_row _ | Legality.Off_site _ -> false)
    d ~cx ~cy

let row_site ?tolerance d ~cx ~cy =
  audit ?tolerance ~oracle:"row-site"
    ~keep:(function
      | Legality.Off_row _ | Legality.Off_site _ -> true
      | Legality.Outside _ | Legality.Overlap _ | Legality.Overlaps_fixed _ -> false)
    d ~cx ~cy

let legal ?tolerance d ~cx ~cy =
  audit ?tolerance ~oracle:"legal" ~keep:(fun _ -> true) d ~cx ~cy

let group_integrity ?(tol = 1e-6) d dgroups ~cx ~cy =
  let acc = ref [] in
  let owner = Hashtbl.create 256 in
  List.iter
    (fun (dg : Dgroup.t) ->
      let gname = dg.Dgroup.group.Groups.g_name in
      let subject = Printf.sprintf "group %s" gname in
      Array.iter
        (fun c ->
          (match Hashtbl.find_opt owner c with
          | Some other when other <> gname ->
            acc :=
              Violation.v ~oracle:"groups"
                ~subject:(Printf.sprintf "cell %s" (cell_name d c))
                "belongs to both group %s and group %s" other gname
              :: !acc
          | _ -> Hashtbl.replace owner c gname);
          let r =
            Rect.of_center ~cx:cx.(c) ~cy:cy.(c) ~w:(Design.cell d c).Types.c_width
              ~h:(Design.cell d c).Types.c_height
          in
          if not (Rect.contains_rect (Rect.expand d.Design.die 1e-6) r) then
            acc :=
              Violation.v ~oracle:"groups"
                ~subject:(Printf.sprintf "cell %s" (cell_name d c))
                "member of group %s lies outside the die" gname
              :: !acc)
        dg.Dgroup.cells;
      let err = Dgroup.alignment_error dg ~cx ~cy in
      if err > tol then
        acc :=
          Violation.v ~oracle:"groups" ~subject
            "snapped array has alignment error %.3g (tolerance %.3g)" err tol
          :: !acc)
    dgroups;
  List.rev !acc

let netbox_sync ?pool ?tol ?(net_name = fun n -> Printf.sprintf "#%d" n) nb =
  Netbox.audit ?pool ?tol nb
  |> List.map (fun (net, msg) ->
         match net with
         | Some n ->
           Violation.v ~oracle:"netbox" ~subject:(Printf.sprintf "net %s" (net_name n)) "%s"
             msg
         | None -> Violation.v ~oracle:"netbox" ~subject:"total" "%s" msg)

let gradient ?pool ?(samples = 12) ?(eps = 1e-5) ?(tol = 1e-3) ~seed ~model ~gamma d =
  let pins = Pins.build d in
  let cx, cy = Pins.centers_of_design d in
  let nc = Design.num_cells d in
  let gx = Array.make nc 0.0 and gy = Array.make nc 0.0 in
  (match pool with
  | Some pool ->
    let pg = Par_grad.create pool pins in
    ignore (Par_grad.value_grad pg pool model ~gamma ~cx ~cy ~gx ~gy)
  | None -> ignore (Model.value_grad model pins ~gamma ~cx ~cy ~gx ~gy));
  let movable = Design.movable_ids d in
  let rng = Rng.create seed in
  let n = min samples (Array.length movable) in
  let picks =
    if n = 0 then [||]
    else
      Array.map
        (fun k -> movable.(k))
        (Rng.sample_without_replacement rng n (Array.length movable))
  in
  (* Only nets incident to the perturbed cell change under the
     perturbation, so the central difference is taken over those nets
     alone — O(local degree) per sample instead of a full objective
     evaluation, and better conditioned (no cancellation against the
     unchanged rest of the design).  Samples are batched over the pool;
     each lands in its own slot and nothing shared is mutated. *)
  let axis =
    match model with
    | Model.Lse -> Dpp_wirelen.Lse.axis_value_grad
    | Model.Wa -> Dpp_wirelen.Wa.axis_value_grad
  in
  let incident_nets i =
    let nets = ref [] in
    Array.iter
      (fun p ->
        let nid = (Design.pin d p).Types.p_net in
        if
          nid >= 0
          && Array.length (Design.net d nid).Types.n_pins >= 2
          && not (List.mem nid !nets)
        then nets := nid :: !nets)
      (Design.cell d i).Types.c_pins;
    List.rev !nets
  in
  let eval_nets (view : Pins.t) nets ~pert ~dx ~dy =
    List.fold_left
      (fun acc nid ->
        let np = (Design.net d nid).Types.n_pins in
        let k = Array.length np in
        for idx = 0 to k - 1 do
          let p = np.(idx) in
          let c = Dpp_util.Compact.I32.get view.Pins.pin_cell p in
          let px = if c = pert then cx.(c) +. dx else cx.(c) in
          let py = if c = pert then cy.(c) +. dy else cy.(c) in
          view.Pins.scratch_x.(idx) <- px +. view.Pins.off_x.(p);
          view.Pins.scratch_y.(idx) <- py +. view.Pins.off_y.(p)
        done;
        let vx = axis view.Pins.scratch_x k ~gamma ~w:view.Pins.scratch_w ~u:view.Pins.scratch_u ~v:view.Pins.scratch_v ~want_grad:false in
        let vy = axis view.Pins.scratch_y k ~gamma ~w:view.Pins.scratch_w ~u:view.Pins.scratch_u ~v:view.Pins.scratch_v ~want_grad:false in
        acc +. ((Design.net d nid).Types.n_weight *. (vx +. vy)))
      0.0 nets
  in
  let num_x = Array.make (max 1 n) 0.0 and num_y = Array.make (max 1 n) 0.0 in
  let sample_range (view : Pins.t) lo hi =
    for s = lo to hi - 1 do
      let i = picks.(s) in
      let nets = incident_nets i in
      num_x.(s) <-
        (eval_nets view nets ~pert:i ~dx:eps ~dy:0.0
        -. eval_nets view nets ~pert:i ~dx:(-.eps) ~dy:0.0)
        /. (2.0 *. eps);
      num_y.(s) <-
        (eval_nets view nets ~pert:i ~dx:0.0 ~dy:eps
        -. eval_nets view nets ~pert:i ~dx:0.0 ~dy:(-.eps))
        /. (2.0 *. eps)
    done
  in
  (match pool with
  | None -> sample_range pins 0 n
  | Some pool ->
    let views =
      Array.init
        (Dpp_par.Pool.nworkers pool)
        (fun w -> if w = 0 then pins else Pins.clone_scratch pins)
    in
    Dpp_par.Pool.iter_chunks pool ~n (fun ~worker ~chunk:_ ~lo ~hi ->
        sample_range views.(worker) lo hi));
  let acc = ref [] in
  let check numeric g axis i =
    let err = abs_float (numeric -. g.(i)) /. max 1.0 (abs_float numeric) in
    if err > tol then
      acc :=
        Violation.v ~oracle:"gradient"
          ~subject:(Printf.sprintf "cell %s" (cell_name d i))
          "%s %s-gradient %.6g disagrees with finite difference %.6g (rel err %.3g)"
          (Model.kind_to_string model) axis g.(i) numeric err
        :: !acc
  in
  Array.iteri
    (fun s i ->
      check num_x.(s) gx "x" i;
      check num_y.(s) gy "y" i)
    picks;
  List.rev !acc

(* ----- routability / congestion ----- *)

module Rudy = Dpp_congest.Rudy
module Gp = Dpp_place.Gp

let congestion ?pool ?(tol = 1e-9) pins ~(stats : Rudy.stats) ~cx ~cy =
  let oracle = "congestion" in
  let r = Rudy.of_pins ?pool pins ~cx ~cy in
  let s = Rudy.stats r in
  let acc = ref [] in
  let check subject fresh stored =
    let err = abs_float (fresh -. stored) /. max 1.0 (abs_float fresh) in
    if err > tol then
      acc :=
        Violation.v ~oracle ~subject
          "stored %.9g disagrees with recomputed %.9g (rel err %.3g)" stored fresh err
        :: !acc
  in
  check "max_ratio" s.Rudy.max_ratio stats.Rudy.max_ratio;
  check "avg_ratio" s.Rudy.avg_ratio stats.Rudy.avg_ratio;
  check "p95_ratio" s.Rudy.p95_ratio stats.Rudy.p95_ratio;
  check "ace_ratio" s.Rudy.ace_ratio stats.Rudy.ace_ratio;
  check "overflowed_bins" s.Rudy.overflowed_bins stats.Rudy.overflowed_bins;
  List.rev !acc

let rt_ledger ?(tol = 1e-9) (rounds : Gp.rt_round list) =
  let oracle = "rt-ledger" in
  let acc = ref [] in
  let add subject fmt =
    Printf.ksprintf
      (fun detail -> acc := Violation.v ~oracle ~subject "%s" detail :: !acc)
      fmt
  in
  let best = ref infinity in
  let prev_round = ref min_int in
  List.iter
    (fun (r : Gp.rt_round) ->
      let subject = Printf.sprintf "round %d" r.Gp.rt_round in
      if r.Gp.rt_round < !prev_round then
        add subject "steering rounds out of order (previous %d)" !prev_round;
      prev_round := r.Gp.rt_round;
      best := min !best r.Gp.rt_ace;
      if abs_float (r.Gp.rt_best -. !best) > tol *. max 1.0 (abs_float !best) then
        add subject "best-ACE envelope %.9g is not the running minimum %.9g" r.Gp.rt_best
          !best;
      if not (Float.is_finite r.Gp.rt_virtual) || r.Gp.rt_virtual < 0.0 then
        add subject "virtual area %.9g is negative or non-finite" r.Gp.rt_virtual;
      if r.Gp.rt_virtual > r.Gp.rt_budget +. (tol *. max 1.0 r.Gp.rt_budget) then
        add subject "virtual area %.9g exceeds the budget %.9g" r.Gp.rt_virtual
          r.Gp.rt_budget;
      if r.Gp.rt_inflated < 0 then
        add subject "negative inflated-cell count %d" r.Gp.rt_inflated)
    rounds;
  (match List.rev rounds with
  | last :: _ ->
    if last.Gp.rt_virtual <> 0.0 || last.Gp.rt_inflated <> 0 then
      add "close" "ledger not closed: %.9g virtual area over %d cells outstanding"
        last.Gp.rt_virtual last.Gp.rt_inflated
  | [] -> ());
  List.rev !acc

let validate d =
  Validate.check d |> Validate.errors
  |> List.map (fun (i : Validate.issue) ->
         Violation.v ~oracle:"validate" ~subject:i.Validate.subject "%s" i.Validate.message)

(* ----- Bookshelf write -> read -> compare ----- *)

let with_temp_dir f =
  let dir = Filename.temp_file "dpp_check" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun file -> Sys.remove (Filename.concat dir file)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* Per net, the multiset of connected endpoints (cell name, pin offset).
   Offsets pass through the writer at finite decimal precision, so the
   multisets are matched under a tolerance rather than compared exactly.
   Unconnected pins are not representable in Bookshelf, so they never
   enter the comparison. *)
let net_endpoints d n =
  Array.to_list (Design.net d n).Types.n_pins
  |> List.map (fun p ->
         let pin = Design.pin d p in
         (cell_name d pin.Types.p_cell, pin.Types.p_dx, pin.Types.p_dy))

let endpoints_match ?(tol = 1e-3) a b =
  let remaining = ref b in
  List.length a = List.length b
  && List.for_all
       (fun (cn, dx, dy) ->
         let rec pick acc = function
           | [] -> false
           | (cn', dx', dy') :: rest
             when cn = cn'
                  && abs_float (dx -. dx') <= tol
                  && abs_float (dy -. dy') <= tol ->
             remaining := List.rev_append acc rest;
             true
           | e :: rest -> pick (e :: acc) rest
         in
         pick [] !remaining)
       a

let bookshelf_roundtrip d =
  let oracle = "bookshelf" in
  let fail =
    try
      with_temp_dir (fun dir ->
          let base = Filename.concat dir "rt" in
          Bookshelf.write d ~basename:base;
          Ok (Bookshelf.read ~basename:base))
    with
    | Bookshelf.Parse_error msg -> Error (Printf.sprintf "re-read failed: %s" msg)
    | Sys_error msg -> Error (Printf.sprintf "I/O failed: %s" msg)
  in
  match fail with
  | Error msg -> [ Violation.v ~oracle ~subject:"design" "%s" msg ]
  | Ok d' ->
    let acc = ref [] in
    let add subject fmt = Printf.ksprintf (fun detail ->
        acc := Violation.v ~oracle ~subject "%s" detail :: !acc) fmt
    in
    let check_count what a b = if a <> b then add "design" "%s count %d became %d" what a b in
    check_count "cell" (Design.num_cells d) (Design.num_cells d');
    check_count "net" (Design.num_nets d) (Design.num_nets d');
    check_count "row" d.Design.num_rows d'.Design.num_rows;
    check_count "group" (List.length d.Design.groups) (List.length d'.Design.groups);
    if Design.num_cells d = Design.num_cells d' then
      for i = 0 to Design.num_cells d - 1 do
        let c = Design.cell d i and c' = Design.cell d' i in
        let subject = Printf.sprintf "cell %s" c.Types.c_name in
        if c.Types.c_name <> c'.Types.c_name then
          add subject "name became %s" c'.Types.c_name;
        if c.Types.c_master <> c'.Types.c_master then
          add subject "master %s became %s" c.Types.c_master c'.Types.c_master;
        if Types.is_fixed_kind c.Types.c_kind <> Types.is_fixed_kind c'.Types.c_kind then
          add subject "fixedness changed";
        if abs_float (c.Types.c_width -. c'.Types.c_width) > 1e-3 then
          add subject "width %.4f became %.4f" c.Types.c_width c'.Types.c_width;
        if abs_float (c.Types.c_height -. c'.Types.c_height) > 1e-3 then
          add subject "height %.4f became %.4f" c.Types.c_height c'.Types.c_height;
        if
          abs_float (d.Design.x.(i) -. d'.Design.x.(i)) > 1e-3
          || abs_float (d.Design.y.(i) -. d'.Design.y.(i)) > 1e-3
        then
          add subject "position (%.4f, %.4f) became (%.4f, %.4f)" d.Design.x.(i)
            d.Design.y.(i) d'.Design.x.(i) d'.Design.y.(i)
      done;
    if Design.num_nets d = Design.num_nets d' then
      for n = 0 to Design.num_nets d - 1 do
        if not (endpoints_match (net_endpoints d n) (net_endpoints d' n)) then
          add
            (Printf.sprintf "net %s" (Design.net d n).Types.n_name)
            "connected pin multiset changed"
      done;
    if List.length d.Design.groups = List.length d'.Design.groups then
      List.iter2
        (fun g g' ->
          let subject = Printf.sprintf "group %s" g.Groups.g_name in
          if g.Groups.g_name <> g'.Groups.g_name then
            add subject "name became %s" g'.Groups.g_name;
          if
            Groups.num_slices g <> Groups.num_slices g'
            || Groups.num_stages g <> Groups.num_stages g'
          then add subject "shape changed";
          if Groups.jaccard g g' < 1.0 then add subject "membership changed")
        d.Design.groups d'.Design.groups;
    List.rev !acc

(* ----- multilevel cluster integrity ----- *)

module Soa = Dpp_netlist.Soa
module I32 = Dpp_util.Compact.I32
module I8 = Dpp_util.Compact.I8

(* The coarse netlist is assembled straight into a flat view, with no
   record validation on the way, so the oracle audits it here: well-formed
   CSR in both directions, net_cell and cell_net mutual transposes, every
   coarse net spanning two clusters, and the exact net set and merged
   weights recomputed from the fine nets and the cluster map. *)
let coarse_nets ~tol (lvl : Dpp_coarsen.level) =
  let c = lvl.Dpp_coarsen.coarse and fine = lvl.Dpp_coarsen.fine in
  let k = Soa.num_cells c and nn = Soa.num_nets c and np = Soa.num_pins c in
  let acc = ref [] in
  let add subject fmt =
    Printf.ksprintf
      (fun detail -> acc := Violation.v ~oracle:"clusters" ~subject "%s" detail :: !acc)
      fmt
  in
  let level = Printf.sprintf "level %s" c.Soa.name in
  (* the first [len] ids of [a] lie in [0, bound) *)
  let in_range what a ~len ~bound =
    let bad = ref 0 in
    for p = 0 to len - 1 do
      let v = I32.get a p in
      if v < 0 || v >= bound then incr bad
    done;
    if !bad > 0 then add level "%s holds %d ids outside [0, %d)" what !bad bound;
    !bad = 0
  in
  (* offsets start at 0, never decrease and stay inside the payload, whose
     used prefix holds ids below [bound] *)
  let csr what off n payload ~bound =
    let ok = ref (I32.length off = n + 1 && I32.get off 0 = 0) in
    for i = 0 to n - 1 do
      if !ok && I32.get off (i + 1) < I32.get off i then ok := false
    done;
    if !ok && I32.get off n > I32.length payload then ok := false;
    if not !ok then add level "%s offsets are not monotone within their payload" what;
    !ok && in_range what payload ~len:(I32.get off n) ~bound
  in
  let (_ : bool) = in_range "pin_cell" c.Soa.pin_cell ~len:np ~bound:k in
  let (_ : bool) = in_range "pin_net" c.Soa.pin_net ~len:np ~bound:nn in
  let cell_pin_ok = csr "cell_pin" c.Soa.cell_pin_off k c.Soa.cell_pin ~bound:np in
  let net_pin_ok = csr "net_pin" c.Soa.net_pin_off nn c.Soa.net_pin ~bound:np in
  let net_cell_ok = csr "net_cell" c.Soa.net_cell_off nn c.Soa.net_cell ~bound:k in
  let cell_net_ok = csr "cell_net" c.Soa.cell_net_off k c.Soa.cell_net ~bound:nn in
  (* the net checks below index through the CSR, not the per-pin arrays *)
  if cell_pin_ok && net_pin_ok && net_cell_ok && cell_net_ok then begin
    (* transposing net_cell (nets ascending) must reproduce cell_net *)
    let cursor = Array.init k (I32.get c.Soa.cell_net_off) in
    let agree = ref true in
    for n = 0 to nn - 1 do
      Soa.iter_cells_of_net c n (fun cell ->
          let p = cursor.(cell) in
          if p >= I32.get c.Soa.cell_net_off (cell + 1) || I32.get c.Soa.cell_net p <> n then
            agree := false
          else cursor.(cell) <- p + 1)
    done;
    Array.iteri
      (fun cell p -> if p <> I32.get c.Soa.cell_net_off (cell + 1) then agree := false)
      cursor;
    if not !agree then add level "net_cell and cell_net are not transposes of each other";
    (* the cluster sets of the fine nets, with their summed weights *)
    let expected = Hashtbl.create nn in
    for n = 0 to Soa.num_nets fine - 1 do
      let cs = ref [] in
      Soa.iter_cells_of_net fine n (fun i -> cs := lvl.Dpp_coarsen.cluster_of.(i) :: !cs);
      match List.sort_uniq compare !cs with
      | [] | [ _ ] -> ()
      | key ->
        let w = Option.value (Hashtbl.find_opt expected key) ~default:0.0 in
        Hashtbl.replace expected key (w +. fine.Soa.net_weight.(n))
    done;
    for n = 0 to nn - 1 do
      let subject = Printf.sprintf "coarse net %d" n in
      let deg = Soa.net_cell_degree c n in
      if deg < 2 then add subject "touches %d distinct cluster(s)" deg
      else begin
        let key = Array.to_list (Soa.cells_of_net c n) in
        match Hashtbl.find_opt expected key with
        | None -> add subject "joins a cluster set no fine net (or another coarse net) maps to"
        | Some w ->
          Hashtbl.remove expected key;
          let got = c.Soa.net_weight.(n) in
          if abs_float (got -. w) > tol *. (1.0 +. abs_float w) then
            add subject "weight %.9g, but its fine nets sum to %.9g" got w
      end
    done;
    if Hashtbl.length expected > 0 then
      add level "%d cluster sets of fine nets have no coarse net" (Hashtbl.length expected)
  end;
  List.rev !acc

let cluster_integrity ?(tol = 1e-6) (lvl : Dpp_coarsen.level) =
  let oracle = "clusters" in
  let fine = lvl.Dpp_coarsen.fine and coarse = lvl.Dpp_coarsen.coarse in
  let nf = Soa.num_cells fine and k = Soa.num_cells coarse in
  let acc = ref [] in
  let add subject fmt =
    Printf.ksprintf
      (fun detail -> acc := Violation.v ~oracle ~subject "%s" detail :: !acc)
      fmt
  in
  let level_subject = Printf.sprintf "level %s" coarse.Soa.name in
  let fine_subject i = Printf.sprintf "cell %s" fine.Soa.cell_name.(i) in
  let cluster_subject cid = Printf.sprintf "cluster %d" cid in
  let cell_area (s : Soa.t) i = s.Soa.width.(i) *. s.Soa.height.(i) in
  if Array.length lvl.Dpp_coarsen.cluster_of <> nf then
    add level_subject "cluster map covers %d of %d fine cells"
      (Array.length lvl.Dpp_coarsen.cluster_of) nf
  else if Array.length lvl.Dpp_coarsen.members <> k then
    add level_subject "member map covers %d of %d clusters"
      (Array.length lvl.Dpp_coarsen.members) k
  else begin
    (* partition: every fine cell in exactly one cluster, maps inverse *)
    let seen = Array.make nf 0 in
    Array.iteri
      (fun cid ms ->
        Array.iter
          (fun i ->
            if i < 0 || i >= nf then add level_subject "cluster %d lists bad cell id %d" cid i
            else begin
              seen.(i) <- seen.(i) + 1;
              if lvl.Dpp_coarsen.cluster_of.(i) <> cid then
                add (fine_subject i) "listed in cluster %d but mapped to %d" cid
                  lvl.Dpp_coarsen.cluster_of.(i)
            end)
          ms)
      lvl.Dpp_coarsen.members;
    Array.iteri (fun i n -> if n <> 1 then add (fine_subject i) "appears in %d clusters" n) seen;
    (* kinds and areas: movables cluster into movables with conserved
       area (group clusters own their idealized array footprint, which
       includes spacing, so member area may only fall below it);
       fixed/pads are preserved one-to-one *)
    let is_group = Array.make k false in
    List.iter (fun (cid, _) -> is_group.(cid) <- true) lvl.Dpp_coarsen.group_of;
    for cid = 0 to k - 1 do
      let ms = lvl.Dpp_coarsen.members.(cid) in
      let subject = cluster_subject cid in
      if Array.length ms = 0 then add subject "is empty"
      else if not (Soa.is_fixed coarse cid) then begin
        if Array.exists (Soa.is_fixed fine) ms then
          add subject "mixes fixed cells into a movable cluster";
        let member_area = Array.fold_left (fun a i -> a +. cell_area fine i) 0.0 ms in
        let coarse_area = cell_area coarse cid in
        let rel = tol *. (1.0 +. coarse_area) in
        if is_group.(cid) then begin
          if member_area > coarse_area +. rel then
            add subject "member area %.6g exceeds group footprint %.6g" member_area coarse_area
        end
        else if abs_float (member_area -. coarse_area) > rel then
          add subject "area %.6g became %.6g" member_area coarse_area
      end
      else if Array.length ms <> 1 then
        add subject "fixed cluster has %d members" (Array.length ms)
      else begin
        let i = ms.(0) in
        let name = fine.Soa.cell_name.(i) in
        if I8.get fine.Soa.kind i <> I8.get coarse.Soa.kind cid then
          add subject "kind changed for fixed cell %s" name;
        if
          abs_float (fine.Soa.width.(i) -. coarse.Soa.width.(cid)) > tol
          || abs_float (fine.Soa.height.(i) -. coarse.Soa.height.(cid)) > tol
          || abs_float (fine.Soa.x.(i) -. coarse.Soa.x.(cid)) > tol
          || abs_float (fine.Soa.y.(i) -. coarse.Soa.y.(cid)) > tol
        then add subject "fixed cell %s not preserved verbatim" name
      end
    done;
    (* dgroups intact: each collapsed group's cluster holds exactly the
       group's members — a bit-slice is never split across clusters *)
    List.iter
      (fun (cid, (dg : Dgroup.t)) ->
        let subject = cluster_subject cid in
        if cid < 0 || cid >= k then add level_subject "group cluster id %d out of range" cid
        else begin
          let ms = lvl.Dpp_coarsen.members.(cid) in
          let sorted_group = Array.copy dg.Dgroup.cells in
          Array.sort compare sorted_group;
          if ms <> sorted_group then
            add subject "holds %d cells but its datapath group has %d (membership differs)"
              (Array.length ms)
              (Array.length dg.Dgroup.cells)
          else
            Array.iter
              (fun i ->
                if lvl.Dpp_coarsen.cluster_of.(i) <> cid then
                  add subject "group member %s escaped to cluster %d" fine.Soa.cell_name.(i)
                    lvl.Dpp_coarsen.cluster_of.(i))
              dg.Dgroup.cells
        end)
      lvl.Dpp_coarsen.group_of;
    acc := List.rev_append (coarse_nets ~tol lvl) !acc
  end;
  List.rev !acc
