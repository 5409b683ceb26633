module Check = Dpp_check
module Trace = Dpp_report.Trace
module Design = Dpp_netlist.Design
module Types = Dpp_netlist.Types
module Dgroup = Dpp_structure.Dgroup

(* Stages from legalization onward must maintain full legality; earlier
   stages work on intermediate (overlapping, off-grid) placements. *)
let legality_from = [ "legal"; "detail"; "flip"; "metrics" ]

let snapped_dgroups (ctx : Ctx.t) =
  let frozen = Ctx.member ctx.Ctx.skip in
  List.filter
    (fun (dg : Dgroup.t) -> Array.for_all frozen dg.Dgroup.cells)
    (ctx.Ctx.dgroups @ ctx.Ctx.macro_dgs)

let run ~stage (ctx : Ctx.t) =
  let d = ctx.Ctx.design in
  let cx = ctx.Ctx.cx and cy = ctx.Ctx.cy in
  let oracles = ref [] and violations = ref [] in
  let oracle name vs =
    oracles := name :: !oracles;
    violations := !violations @ vs
  in
  oracle "finite" (Check.finite d ~cx ~cy);
  (match ctx.Ctx.netbox with
  | Some nb ->
    oracle "netbox"
      (Check.netbox_sync ~pool:ctx.Ctx.pool
         ~net_name:(fun n -> (Design.net d n).Types.n_name)
         nb)
  | None -> ());
  (match (stage, ctx.Ctx.ml_levels) with
  | "gp", (_ :: _ as levels) ->
    oracle "clusters" (List.concat_map Check.cluster_integrity levels)
  | _ -> ());
  (match (stage, ctx.Ctx.gp) with
  | "gp", Some g -> oracle "rt-ledger" (Check.rt_ledger g.Dpp_place.Gp.rt_trace)
  | _ -> ());
  (match (stage, ctx.Ctx.metrics) with
  | "metrics", Some { Ctx.congestion = stats; _ } ->
    oracle "congestion"
      (Check.congestion ~pool:ctx.Ctx.pool ctx.Ctx.pins ~stats ~cx ~cy)
  | _ -> ());
  if List.mem stage legality_from then begin
    oracle "legal" (Check.legal d ~cx ~cy);
    match snapped_dgroups ctx with
    | [] -> ()
    | snapped -> oracle "groups" (Check.group_integrity d snapped ~cx ~cy)
  end;
  {
    Trace.ok = !violations = [];
    oracles = List.rev !oracles;
    violations = Check.Violation.strings !violations;
  }

module Snapshot = struct
  module Json = Dpp_report.Json
  module Orient = Dpp_geom.Orient
  module Rect = Dpp_geom.Rect
  module Legal = Dpp_place.Legal

  type t = {
    stage : string;
    design : string;
    cx : float array;
    cy : float array;
    orient : Orient.t array;
    skip_ids : int array;
    flip_skip_ids : int array;
    obstacles : Rect.t list;
    bound : Rect.t option;
    assignment : int array;
    failed : int list;
  }

  let capture ~stage (ctx : Ctx.t) =
    {
      stage;
      design = ctx.Ctx.design.Design.name;
      cx = Array.copy ctx.Ctx.cx;
      cy = Array.copy ctx.Ctx.cy;
      orient = Array.copy ctx.Ctx.design.Design.orient;
      skip_ids = Array.copy ctx.Ctx.skip;
      flip_skip_ids = Array.copy ctx.Ctx.flip_skip;
      obstacles = ctx.Ctx.obstacles;
      bound = ctx.Ctx.bound;
      assignment =
        (match ctx.Ctx.legal with
        | Some l -> Array.copy l.Legal.assignment
        | None -> [||]);
      failed = (match ctx.Ctx.legal with Some l -> l.Legal.failed | None -> []);
    }

  let restore (s : t) (ctx : Ctx.t) =
    let d = ctx.Ctx.design in
    let n = Array.length d.Design.orient in
    (* a spool file comes from outside the program: check every field
       before installing any of it *)
    let reject field =
      Printf.ksprintf (fun why -> invalid_arg ("Snapshot.restore: " ^ field ^ " " ^ why))
    in
    if s.design <> d.Design.name then reject "design" "is %S, not %S" s.design d.Design.name;
    let length field len = if len <> n then reject field "has length %d, not %d" len n in
    let ids field =
      Array.iter (fun i -> if i < 0 || i >= n then reject field "id %d outside [0, %d)" i n)
    in
    length "orient" (Array.length s.orient);
    length "cx" (Array.length s.cx);
    length "cy" (Array.length s.cy);
    if s.assignment <> [||] then length "assignment" (Array.length s.assignment);
    ids "skip_ids" s.skip_ids;
    ids "flip_skip_ids" s.flip_skip_ids;
    ids "failed" (Array.of_list s.failed);
    (* orientations first: accepted flips must be visible through the
       soa/pin views (they alias [d.orient]) before coordinates adopt the
       snapshot placement *)
    for i = 0 to n - 1 do
      if not (Orient.equal d.Design.orient.(i) s.orient.(i)) then begin
        d.Design.orient.(i) <- s.orient.(i);
        Dpp_wirelen.Pins.flip_cell_x ctx.Ctx.pins i
      end
    done;
    Ctx.set_coords ctx (Array.copy s.cx) (Array.copy s.cy);
    ctx.Ctx.skip <- s.skip_ids;
    ctx.Ctx.flip_skip <- s.flip_skip_ids;
    ctx.Ctx.obstacles <- s.obstacles;
    ctx.Ctx.bound <- s.bound;
    if Array.length s.assignment > 0 then
      ctx.Ctx.legal <-
        Some
          {
            Legal.assignment = Array.copy s.assignment;
            cx = ctx.Ctx.cx;
            cy = ctx.Ctx.cy;
            failed = s.failed;
          }

  (* ----- JSON codec (the spool format the serve layer persists) ----- *)

  let rect_of_json = function
    | Json.Arr [ a; b; c; d ] ->
      Rect.make ~xl:(Json.to_float a) ~yl:(Json.to_float b) ~xh:(Json.to_float c)
        ~yh:(Json.to_float d)
    | _ -> raise (Json.Parse_error "snapshot: malformed rectangle")

  (* Streaming emit: a million-cell snapshot is four ~1M-element arrays,
     and materializing them as a Json tree costs ~50 bytes of boxed
     nodes per element before a single byte reaches the spool file.
     Writing fields straight through [puts] keeps the writer O(1) in
     retained memory; the byte stream is exactly what the old
     [Json.encode (to_json s)] path produced, so spools stay
     interchangeable across versions. *)
  let emit ~(puts : string -> unit) s =
    let num f = puts (Json.num_string f) in
    let str v =
      puts "\"";
      puts (Json.escape_string v);
      puts "\""
    in
    let floats a =
      puts "[";
      Array.iteri
        (fun i f ->
          if i > 0 then puts ",";
          num f)
        a;
      puts "]"
    in
    let ints a =
      puts "[";
      Array.iteri
        (fun i x ->
          if i > 0 then puts ",";
          num (float_of_int x))
        a;
      puts "]"
    in
    let rect (r : Rect.t) =
      puts "[";
      num r.Rect.xl;
      puts ",";
      num r.Rect.yl;
      puts ",";
      num r.Rect.xh;
      puts ",";
      num r.Rect.yh;
      puts "]"
    in
    puts "{\"stage\":";
    str s.stage;
    puts ",\"design\":";
    str s.design;
    puts ",\"cx\":";
    floats s.cx;
    puts ",\"cy\":";
    floats s.cy;
    puts ",\"orient\":[";
    Array.iteri
      (fun i o ->
        if i > 0 then puts ",";
        str (Orient.to_string o))
      s.orient;
    puts "]";
    puts ",\"skip_ids\":";
    ints s.skip_ids;
    puts ",\"flip_skip_ids\":";
    ints s.flip_skip_ids;
    puts ",\"obstacles\":[";
    List.iteri
      (fun i r ->
        if i > 0 then puts ",";
        rect r)
      s.obstacles;
    puts "]";
    puts ",\"bound\":";
    (match s.bound with Some r -> rect r | None -> puts "null");
    puts ",\"assignment\":";
    ints s.assignment;
    puts ",\"failed\":";
    ints (Array.of_list s.failed);
    puts "}"

  let output oc s = emit ~puts:(output_string oc) s

  let encode s =
    let b = Buffer.create 4096 in
    emit ~puts:(Buffer.add_string b) s;
    Buffer.contents b

  let float_array key v =
    match Json.member key v with
    | Some (Json.Arr xs) -> Array.of_list (List.map Json.to_float xs)
    | _ -> raise (Json.Parse_error (Printf.sprintf "snapshot: missing array %S" key))

  let int_array key v = Array.map int_of_float (float_array key v)

  let str key v =
    match Json.member key v with
    | Some (Json.Str s) -> s
    | _ -> raise (Json.Parse_error (Printf.sprintf "snapshot: missing string %S" key))

  let of_json v =
    {
      stage = str "stage" v;
      design = str "design" v;
      cx = float_array "cx" v;
      cy = float_array "cy" v;
      orient =
        (match Json.member "orient" v with
        | Some (Json.Arr xs) ->
          Array.of_list
            (List.map
               (fun x ->
                 match Orient.of_string (Json.to_string x) with
                 | Some o -> o
                 | None -> raise (Json.Parse_error "snapshot: bad orientation"))
               xs)
        | _ -> raise (Json.Parse_error "snapshot: missing array \"orient\""));
      skip_ids = int_array "skip_ids" v;
      flip_skip_ids = int_array "flip_skip_ids" v;
      obstacles =
        (match Json.member "obstacles" v with
        | Some (Json.Arr xs) -> List.map rect_of_json xs
        | _ -> []);
      bound =
        (match Json.member "bound" v with
        | Some Json.Null | None -> None
        | Some r -> Some (rect_of_json r));
      assignment = int_array "assignment" v;
      failed = Array.to_list (int_array "failed" v);
    }

  let decode s = of_json (Json.parse s)

  let save ~path s =
    (* write-then-rename so a kill mid-write never leaves a torn spool
       file for the restarted server to trip over *)
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output oc s);
    Sys.rename tmp path

  let load ~path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> decode (really_input_string ic (in_channel_length ic)))
end
