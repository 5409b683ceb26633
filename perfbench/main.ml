(* perfbench entry point.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints one line per metric and, as its last line, the JSON result.
   Flow samples run in fresh child processes of this same executable
   (internal flag --child). *)

let child_flow ~workload ~seed ~traced =
  let cmd = Sys.executable_name in
  let trace = if traced then "1" else "0" in
  let args = [| cmd; "--child"; "--workload"; workload; "--seed"; string_of_int seed; "--trace"; trace |] in
  let ic = Unix.open_process_args_in cmd args in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
    match List.rev (String.split_on_char '\n' (String.trim out)) with
    | last :: _ -> Perfbench.Flow_job.of_json last
    | [] -> failwith "perfbench: child printed nothing")
  | _ -> failwith (Printf.sprintf "perfbench: flow child for %s (seed %d) failed" workload seed)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let child = ref false in
  let spec =
    [
      "--workload", Arg.Set_string workload, "NAME workload: " ^ String.concat ", " Perfbench.Bench.workloads;
      "--seed", Arg.Set_int seed, "N input seed";
      "--seconds", Arg.Set_float seconds, "S measured time budget";
      "--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics";
      "--child", Arg.Set child, " internal: take one flow sample and print it";
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let valid =
    List.mem !workload (Perfbench.Bench.workloads @ Perfbench.Bench.reproducers)
    && !seed >= 0
    && (!trace = 0 || !trace = 1)
    && (!child || !seconds > 0.0)
  in
  if not valid then begin
    prerr_endline ("perfbench: usage: " ^ usage);
    exit 2
  end;
  if !child then begin
    let t = Option.get (Perfbench.Flow_job.target ~workload:!workload ~seed:!seed) in
    print_endline (Perfbench.Flow_job.to_json (Perfbench.Flow_job.run ~traced:(!trace = 1) t))
  end
  else begin
    let trace = !trace = 1 in
    Printf.printf "perfbench: workload %s, seed %d, %g s budget, trace %b\n" !workload !seed !seconds trace;
    Printf.printf "host: %d cores, OCaml %s, flow jobs %s\n%!" (Domain.recommended_domain_count ())
      Sys.ocaml_version
      (if String.starts_with ~prefix:"serve" !workload then "1 per job (2 workers, 2 clients)" else "2");
    let r =
      Perfbench.Bench.run ~runner:child_flow ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace ()
    in
    List.iter print_endline (Perfbench.Bench.render ~trace r)
  end
