(* The serve_mix workload: an in-process placement server with two worker
   domains, driven by two closed-loop clients.  Each client sends a stream
   of requests over a set of presets in structure-aware mode with the
   daemon's --fast schedule:

   - cold: a preset at a design seed nobody submitted before (extraction
     cache miss);
   - warm: a repeat of the spec this client completed last (cache hit);
   - eco: a seeded 2-edit ECO, verified, against the base this client
     placed last.

   Each client sends a fixed number of requests, so every run serves the
   same mix.  Every job writes its placement as Bookshelf files under the
   run's scratch directory; the files are read back and checked after the
   last verdict. *)

module P = Dpp_serve.Protocol
module Server = Dpp_serve.Server
module Trace = Dpp_report.Trace

type kind = Cold | Warm | Eco_job

type outcome =
  | Done of { hpwl : float; wall_s : float; eco : P.eco_summary option }
  | Failed of string
  | Refused

type job = {
  kind : kind;
  preset : string;
  key : string;  (** the placed spec, for matching warm repeats to their cold run *)
  out : string;  (** Bookshelf basename the server writes the placement to *)
  latency : float;  (** submit to verdict, as the client sees it *)
  outcome : outcome;
  gp_overflow : float option;  (** from the streamed gp stage event *)
  rudy_ace : float option;  (** from the streamed metrics stage event *)
}

let now = Unix.gettimeofday

let fast_spec ~out ~seed name =
  {
    (P.spec ~mode:Dpp_core.Config.Structure_aware ~out (P.Preset { name; seed })) with
    P.gp_rounds = Some 6;
    gp_inner_iters = Some 15;
    detail_passes = Some 1;
  }

(* What the clients ask for: the presets cold requests walk, and the
   dirty-fraction threshold of the ECO requests ([None]: the server's
   default, so small edits re-place incrementally). *)
type mix = { presets : string array; eco_threshold : float option }

(* The benchmark's mix.  Two defects of the program keep it narrow (see
   README.md): structure-aware legalization leaves overlapping cells on
   dp_add32, dp_alu32, dp_mix_s and dp_mix_l for some design seeds, and
   incremental ECO leaves overlapping cells after some edits on every
   preset.  So the mix places only the presets that came out legal on
   every seed tried, and its ECO requests take threshold 0, which makes
   every ECO fall back to a full re-place of the edited design. *)
let gated = { presets = [| "dp_shift32"; "dp_mult8"; "rand_ctrl" |]; eco_threshold = Some 0.0 }

(* Every preset and incremental ECO: the mix the defects above fail on,
   kept runnable (workload serve_full) to show them. *)
let full = { presets = Array.of_list Dpp_gen.Presets.names; eco_threshold = None }

let spec_key (s : P.job_spec) = Dpp_report.Json.encode (P.spec_to_json { s with P.out = None })

(* Submit one request and block until its verdict; returns the verdict,
   the submit time, and the figures the job's stage events carried. *)
let submit srv req =
  let m = Mutex.create () and c = Condition.create () in
  let verdict = ref None and gp_overflow = ref None and rudy_ace = ref None in
  let reply_fn r =
    Mutex.protect m (fun () ->
        match r with
        | P.Done { hpwl; wall_s; eco; _ } -> verdict := Some (Done { hpwl; wall_s; eco })
        | P.Failed { reason; _ } -> verdict := Some (Failed reason)
        | P.Rejected _ -> verdict := Some Refused
        | P.Event { stage = { Trace.name = "gp"; overflow; _ }; _ } -> gp_overflow := overflow
        | P.Event { stage = { Trace.name = "metrics"; extra; _ }; _ } ->
          rudy_ace := Option.map Dpp_report.Json.to_float (List.assoc_opt "rudy_ace" extra)
        | _ -> ());
    Condition.broadcast c
  in
  let t0 = now () in
  ignore (Server.submit_request srv req ~reply_fn : [ `Queued of int | `Busy ]);
  Mutex.lock m;
  while !verdict = None do
    Condition.wait c m
  done;
  Mutex.unlock m;
  Option.get !verdict, t0, !gp_overflow, !rudy_ace

let run_job srv ~kind ~preset ~spec ~out req =
  let outcome, submitted, gp_overflow, rudy_ace = submit srv req in
  { kind; preset; key = spec_key spec; out; latency = now () -. submitted; outcome; gp_overflow; rudy_ace }

(* One closed-loop client: [requests] requests of the kinds cold, warm,
   cold, eco, repeating.  Cold requests walk the presets in a fixed order
   (client 1 starts half way round); the seed picks the designs and the
   edits.  Warm and eco requests reuse the client's latest cold
   placement. *)
let client srv ~mix ~seed ~id ~dir ~requests =
  let presets = mix.presets in
  let rng = Random.State.make [| seed; id |] in
  let latest = ref None and jobs = ref [] and cold = ref 0 and k = ref 0 in
  while !k < requests do
    let out = Filename.concat dir (Printf.sprintf "c%d_j%d" id !k) in
    let kind = if !latest = None then Cold else [| Cold; Warm; Cold; Eco_job |].(!k mod 4) in
    let preset, spec, req =
      match kind, !latest with
      | Cold, _ | _, None ->
        let n = Array.length presets in
        let name = presets.(((id * n / 2) + !cold) mod n) in
        let spec = fast_spec ~out ~seed:((seed lsl 16) lor (id lsl 12) lor !cold) name in
        incr cold;
        name, spec, P.Submit spec
      | Warm, Some (name, spec) ->
        let spec = { spec with P.out = Some out } in
        name, spec, P.Submit spec
      | Eco_job, Some (name, spec) ->
        let spec = { spec with P.out = Some out } in
        let edits = P.Random_edits { ops = 2; seed = Random.State.int rng 1_000_000 } in
        name, spec, P.Eco_submit { base = spec; edits; threshold = mix.eco_threshold; verify = true }
    in
    let job = run_job srv ~kind ~preset ~spec ~out req in
    (match kind, job.outcome with
    | Cold, Done _ -> latest := Some (preset, spec)
    | _ -> ());
    jobs := job :: !jobs;
    incr k
  done;
  List.rev !jobs

let server_cfg = { Server.default_cfg with Server.workers = 2 }

(* Set-up: generate and validate one design of each preset of the mix,
   then start the server; the median of [Flow_job.setup_reps].  The
   designs come first: idle worker domains slow an allocating main domain
   down (every minor collection stops all domains). *)
let setup ~mix ~seed =
  let rec go n acc =
    let t0 = now () in
    Array.iter
      (fun name ->
        let d = Flow_job.preset ~seed name () in
        if not (Dpp_netlist.Validate.is_clean (Dpp_netlist.Validate.check d)) then
          failwith (name ^ ": generated design does not validate"))
      mix.presets;
    let srv = Server.create ~cfg:server_cfg () in
    let acc = (now () -. t0) :: acc in
    if n = 1 then srv, acc
    else begin
      Server.shutdown srv;
      go (n - 1) acc
    end
  in
  go Flow_job.setup_reps []

(* [dir] and its files; its parent too once empty *)
let remove_tree dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end;
  let parent = Filename.dirname dir in
  if Sys.file_exists parent && Sys.readdir parent = [||] then Sys.rmdir parent

type session = {
  setup_s : float list;
  elapsed : float;  (** first submit to last verdict *)
  jobs : job list;
  peak_rss_mb : float;
  cache : Dpp_serve.Cache.stats;
}

let make_dir dir =
  if not (Sys.file_exists (Filename.dirname dir)) then Sys.mkdir (Filename.dirname dir) 0o755;
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

(* Requests per client for a [seconds] budget: about 0.7 jobs per second
   per client on the reference host (2 cores), in whole cycles of the four
   kinds. *)
let requests_for ~seconds = 4 * max 1 ((int_of_float (seconds *. 0.7) + 3) / 4)

let run ~mix ~seed ~seconds ~dir =
  let requests = requests_for ~seconds in
  let srv, setup_s = setup ~mix ~seed in
  make_dir dir;
  let t0 = now () in
  let results = Array.make 2 [] in
  let threads =
    List.init 2 (fun id ->
        Thread.create (fun () -> results.(id) <- client srv ~mix ~seed ~id ~dir ~requests) ())
  in
  List.iter Thread.join threads;
  let elapsed = now () -. t0 in
  let peak_rss_mb = float (Dpp_util.Meminfo.vm_hwm_kb ()) /. 1024.0 in
  let cache = Server.extraction_stats srv in
  Server.shutdown srv;
  { setup_s; elapsed; jobs = results.(0) @ results.(1); peak_rss_mb; cache }

(* The job spec that places [t]'s design (the preset [t.label] at [seed])
   under [t]'s schedule and kernel workers. *)
let spec_of_target (t : Flow_job.target) ~seed ~out =
  let c = t.Flow_job.config in
  {
    (P.spec ~mode:c.Dpp_core.Config.mode ~jobs:c.Dpp_core.Config.jobs ~out
       (P.Preset { name = t.Flow_job.label; seed }))
    with
    P.gp_rounds = Some c.Dpp_core.Config.gp_rounds;
    gp_inner_iters = Some c.Dpp_core.Config.gp_inner_iters;
    detail_passes = Some c.Dpp_core.Config.detail_passes;
  }

(* One placement job and then one verified 2-edit ECO against it, as the
   benchmark's mix serves them, one after the other: the serve and Eco
   layers for a traced run that serves no mix. *)
let single (t : Flow_job.target) ~seed ~dir =
  let srv = Server.create ~cfg:server_cfg () in
  make_dir dir;
  let t0 = now () in
  let out name = Filename.concat dir name in
  let spec = spec_of_target t ~seed ~out:(out "base") in
  let base = run_job srv ~kind:Cold ~preset:t.Flow_job.label ~spec ~out:(out "base") (P.Submit spec) in
  let spec = { spec with P.out = Some (out "eco") } in
  let edits = P.Random_edits { ops = 2; seed } in
  let eco =
    run_job srv ~kind:Eco_job ~preset:t.Flow_job.label ~spec ~out:(out "eco")
      (P.Eco_submit { base = spec; edits; threshold = gated.eco_threshold; verify = true })
  in
  let elapsed = now () -. t0 in
  let peak_rss_mb = float (Dpp_util.Meminfo.vm_hwm_kb ()) /. 1024.0 in
  let cache = Server.extraction_stats srv in
  Server.shutdown srv;
  { setup_s = []; elapsed; jobs = [ base; eco ]; peak_rss_mb; cache }

(* ----- checks and figures, after the last verdict ----- *)

type checked = { job : job; failures : string list }

let check_jobs jobs =
  let cold_hpwl = Hashtbl.create 64 in
  List.iter
    (fun j ->
      match j.kind, j.outcome with
      | Cold, Done { hpwl; _ } -> Hashtbl.replace cold_hpwl j.key hpwl
      | _ -> ())
    jobs;
  List.map
    (fun j ->
      let label = Printf.sprintf "%s (%s)" (Filename.basename j.out) j.preset in
      match j.outcome with
      | Refused -> { job = j; failures = [ label ^ ": refused (queue full)" ] }
      | Failed reason -> { job = j; failures = [ label ^ ": failed: " ^ reason ] }
      | Done { hpwl; eco; _ } ->
        let d = Dpp_netlist.Bookshelf.read ~basename:j.out in
        let file = Checks.placed ~tol:(Checks.file_tolerance d) ~label d ~hpwl in
        let warm =
          match j.kind, Hashtbl.find_opt cold_hpwl j.key with
          | Warm, Some h when not (Float.equal h hpwl) ->
            [ Printf.sprintf "%s: warm repeat HPWL %.17g differs from its cold run %.17g" label hpwl h ]
          | _ -> []
        in
        let eco_summary =
          match j.kind, eco with
          | Eco_job, None -> [ label ^ ": ECO verdict carries no summary" ]
          | _ -> []
        in
        { job = j; failures = file @ warm @ eco_summary })
    jobs

let mean = function [] -> 0.0 | l -> Dpp_util.Statx.mean (Array.of_list l)

(* A figure of the completed cold jobs (one per distinct design): [per]
   over each preset's jobs, then [combine] over the presets, so every
   preset weighs the same. *)
let over_presets ~per ~combine pick checked =
  let by = Hashtbl.create 8 in
  List.iter
    (fun c ->
      match c.job.kind, c.job.outcome with
      | Cold, Done { hpwl; wall_s; _ } -> (
        match pick c ~hpwl ~wall_s with
        | Some v ->
          Hashtbl.replace by c.job.preset (v :: Option.value ~default:[] (Hashtbl.find_opt by c.job.preset))
        | None -> ())
      | _ -> ())
    checked;
  combine (Hashtbl.fold (fun _ vs acc -> per vs :: acc) by [])

(* end-to-end figures; wall times take medians (noise only adds time),
   placement quality takes means over designs.  Presets combine by
   geometric mean, so dp_shift32, whose GP overflow is ~6x the others'
   and varies most between designs, does not swamp the other two. *)
let end_to_end s checked =
  let done_ = List.filter (fun c -> match c.job.outcome with Done _ -> true | _ -> false) checked in
  let lat = List.map (fun c -> c.job.latency) done_ in
  [
    "setup_s", Metrics.median s.setup_s;
    ( "flow_s",
      over_presets ~per:Metrics.median ~combine:Metrics.geomean (fun _ ~hpwl:_ ~wall_s -> Some wall_s) checked );
    "peak_rss_mb", s.peak_rss_mb;
    "hpwl", over_presets ~per:mean ~combine:Metrics.geomean (fun _ ~hpwl ~wall_s:_ -> Some hpwl) checked;
    ( "gp_overflow",
      over_presets ~per:mean ~combine:Metrics.geomean (fun c ~hpwl:_ ~wall_s:_ -> c.job.gp_overflow) checked );
    ( "rudy_ace",
      over_presets ~per:mean ~combine:Metrics.geomean (fun c ~hpwl:_ ~wall_s:_ -> c.job.rudy_ace) checked );
    "job_p50_s", Metrics.median lat;
    "job_p90_s", Metrics.p90 lat;
    "jobs_per_s", float (List.length done_) /. s.elapsed;
  ]

(* per-layer figures of lib/serve (run time of placement jobs, queueing
   wait of all jobs) and of Eco (the ECO jobs) *)
let layers s checked =
  let walls, waits, eco_walls, dirty, fallbacks =
    List.fold_left
      (fun (w, q, ew, dy, fb) c ->
        match c.job.outcome with
        | Done { wall_s; eco; _ } ->
          let w, ew, dy, fb =
            match eco with
            | Some e -> w, wall_s :: ew, e.P.dirty_fraction :: dy, (if e.P.fallback then fb + 1 else fb)
            | None -> wall_s :: w, ew, dy, fb
          in
          w, (c.job.latency -. wall_s) :: q, ew, dy, fb
        | _ -> w, q, ew, dy, fb)
      ([], [], [], [], 0) checked
  in
  let lookups = s.cache.Dpp_serve.Cache.hits + s.cache.Dpp_serve.Cache.misses in
  [
    "serve.run_p50_s", Metrics.median walls;
    "serve.wait_p50_s", Metrics.median waits;
    ( "serve.cache_hit_rate",
      if lookups = 0 then 0.0 else float s.cache.Dpp_serve.Cache.hits /. float lookups );
    "serve.cache_evictions", float s.cache.Dpp_serve.Cache.evictions;
    "serve.busy", float (List.length (List.filter (fun c -> c.job.outcome = Refused) checked));
    "eco.run_p50_s", Metrics.median eco_walls;
    "eco.dirty_frac_p50", Metrics.median dirty;
    "eco.fallbacks", float fallbacks;
  ]
