(* One benchmark run: measure a workload for a time budget, check every
   output, and report the metrics.  Tracing off gives the end-to-end
   metrics; tracing on gives the per-layer ones. *)

let workloads = [ "xl_gp"; "xl_wide"; "serve_mix" ]

(* Runnable but not in BENCHMARK.json: serve_mix over every preset with
   incremental ECO, which shows the program's legalization and ECO
   defects (it reports correct: false until they are fixed). *)
let reproducers = [ "serve_full" ]

(* How a flow sample is taken: in a fresh child process for the real
   benchmark (VmHWM only ever rises within a process), in-process for the
   tests. *)
type runner = workload:string -> seed:int -> traced:bool -> Flow_job.sample

let in_process : runner =
 fun ~workload ~seed ~traced ->
  match Flow_job.target ~workload ~seed with
  | Some t -> Flow_job.run ~traced t
  | None -> invalid_arg ("unknown workload " ^ workload)

type report = {
  lines : string list;  (** human-readable lines, printed before the result *)
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let value s name = match List.assoc_opt name s.Flow_job.values with Some v -> v | None -> 0.0

let flow_report samples =
  let med name = Metrics.median (List.map (fun s -> value s name) samples) in
  let flows = List.map (fun s -> value s "flow_s") samples in
  [
    "setup_s", Metrics.median (List.concat_map (fun s -> s.Flow_job.setup_s) samples);
    "flow_s", med "flow_s";
    "peak_rss_mb", med "peak_rss_mb";
    "hpwl", med "hpwl";
    "gp_overflow", med "gp_overflow";
    "rudy_ace", med "rudy_ace";
    "job_p50_s", Metrics.median flows;
    "job_p90_s", Metrics.p90 flows;
    "jobs_per_s", float (List.length flows) /. List.fold_left ( +. ) 0.0 flows;
  ]

let success_rate ~attempted ~failed = "success_rate", 1.0 -. (float failed /. float attempted)

(* one operation per flow sample; failed when any check failed *)
let tally samples =
  ( List.length samples,
    List.length (List.filter (fun s -> s.Flow_job.failures <> []) samples),
    List.concat_map (fun s -> s.Flow_job.failures) samples )

(* The traced pair: the same flow untraced and traced.  Their HPWLs must
   agree bit for bit; the wall-time ratio is the tracing overhead. *)
let traced_pair (runner : runner) ~workload ~seed =
  let plain = runner ~workload ~seed ~traced:false in
  let traced = runner ~workload ~seed ~traced:true in
  let h0 = value plain "hpwl" and h1 = value traced "hpwl" in
  let same = Float.equal h0 h1 in
  let overhead = 100.0 *. ((value traced "flow_s" /. value plain "flow_s") -. 1.0) in
  let attempted, failed, failures = tally [ plain; traced ] in
  ( traced,
    ("trace.overhead_pct", overhead),
    attempted + 1,
    (if same then failed else failed + 1),
    if same then failures
    else failures @ [ Printf.sprintf "traced HPWL %.17g differs from untraced %.17g" h1 h0 ] )

(* Seconds one flow sample takes on the reference host (2 cores).  A run
   takes the whole number of samples nearest its budget, at least one, so
   both sides of a comparison measure the same work. *)
let nominal_s = function "xl_gp" -> 17.0 | "xl_wide" -> 21.0 | _ -> 1.0

(* Serve jobs with [f], then check their outputs; the files the server
   wrote live under [dir] only for as long as that takes. *)
let served ~dir f =
  let dir = Filename.concat dir (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  Fun.protect
    ~finally:(fun () -> Serve_mix.remove_tree dir)
    (fun () ->
      let s = f dir in
      let checked = Serve_mix.check_jobs s.Serve_mix.jobs in
      ( s,
        checked,
        List.length checked,
        List.length (List.filter (fun c -> c.Serve_mix.failures <> []) checked),
        List.concat_map (fun c -> c.Serve_mix.failures) checked ))

let run ?(runner = in_process) ?(dir = ".perfbench_tmp") ~workload ~seed ~seconds ~trace () =
  match workload with
  | "serve_mix" | "serve_full" ->
    let mix = if workload = "serve_mix" then Serve_mix.gated else Serve_mix.full in
    let s, checked, attempted, failed, failures = served ~dir (fun dir -> Serve_mix.run ~mix ~seed ~seconds ~dir) in
    let count k = List.length (List.filter (fun c -> c.Serve_mix.job.Serve_mix.kind = k) checked) in
    let info =
      Printf.sprintf "%s: %d jobs (%d cold, %d warm, %d eco) in %.2f s" workload attempted
        (count Serve_mix.Cold) (count Serve_mix.Warm) (count Serve_mix.Eco_job) s.Serve_mix.elapsed
    in
    if not trace then
      {
        lines = info :: failures;
        attempted;
        failed;
        values = success_rate ~attempted ~failed :: Serve_mix.end_to_end s checked;
      }
    else begin
      let traced, overhead, a, f, fl = traced_pair runner ~workload ~seed:(seed * 16) in
      {
        lines = info :: (failures @ fl);
        attempted = attempted + a;
        failed = failed + f;
        values = (overhead :: Serve_mix.layers s checked) @ traced.Flow_job.values;
      }
    end
  | _ when not trace ->
    (* each sample places its own design, so a run's medians span designs *)
    let seeds = List.init (max 1 (Float.to_int (Float.round (seconds /. nominal_s workload)))) (fun i -> (seed * 16) + i) in
    let samples = List.map (fun seed -> runner ~workload ~seed ~traced:false) seeds in
    let attempted, failed, failures = tally samples in
    {
      lines =
        Printf.sprintf "%s: %d flow samples, design seeds %s" workload (List.length samples)
          (String.concat ", " (List.map string_of_int seeds))
        :: failures;
      attempted;
      failed;
      values = success_rate ~attempted ~failed :: flow_report samples;
    }
  | _ ->
    let seed = seed * 16 in
    let traced, overhead, attempted, failed, failures = traced_pair runner ~workload ~seed in
    (* one job and one ECO of the serve_mix kind (the smoke design for
       the tests), so the serve and Eco layers are measured here too *)
    let stand_in = if workload = "smoke" then workload else "serve_mix" in
    let target = Option.get (Flow_job.target ~workload:stand_in ~seed) in
    let s, checked, a, f, fl = served ~dir (fun dir -> Serve_mix.single target ~seed ~dir) in
    {
      lines = failures @ fl;
      attempted = attempted + a;
      failed = failed + f;
      values = (overhead :: Serve_mix.layers s checked) @ traced.Flow_job.values;
    }

(* The printed report: one line per metric, then the result line. *)
let render ~trace r =
  let specs = if trace then Metrics.per_layer else Metrics.end_to_end in
  let selected = Metrics.select specs r.values in
  r.lines
  @ List.map (fun ((s : Metrics.spec), v) -> Printf.sprintf "  %-28s %14.6g %s" s.name v s.unit_) selected
  @ [ Metrics.result_line ~attempted:r.attempted ~failed:r.failed selected ]
