(* holes_bench: the repository's end-to-end benchmark (README.md here).

     holes_bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
     holes_bench.exe compare BASE_DIR HEAD_DIR [--workload NAME]...
     holes_bench.exe selftest [--benchmark BENCHMARK.json]

   A run prints every metric with its unit, one line per check, and as
   its last line the result as one JSON object; it also writes the full
   result (and, traced, a Chrome trace) under --out. *)

let rec mkdir_p (dir : string) : unit =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let main_run (argv : string list) : int =
  let workload = ref "" and seed = ref Measure.default_seed and seconds = ref 25.0 and trace = ref 0 in
  let out = ref ".bench_results" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Measure.workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measure for this long");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--out", Arg.Set_string out, "DIR directory for result and trace files");
    ]
  in
  Arg.parse_argv ~current:(ref 0) (Array.of_list ("holes_bench" :: argv)) specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "holes_bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  if not (List.mem !workload Measure.workloads) then raise (Arg.Bad ("unknown --workload " ^ !workload));
  if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace takes 0 or 1");
  mkdir_p !out;
  let stem = Filename.concat !out (Printf.sprintf "%s.seed%d" !workload !seed) in
  let r =
    Measure.run ~workload:!workload ~size:Batch.Full ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~trace_path:(stem ^ ".trace.json") ()
  in
  Measure.print_result r;
  let oc = open_out (Printf.sprintf "%s.trace%d.json" stem !trace) in
  output_string oc (Json.to_string (Measure.result_json r));
  output_string oc "\n";
  close_out oc;
  print_endline (Json.to_string (Measure.summary_json r));
  0

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let code =
    try
      match argv with
      | "compare" :: rest -> Compare.main rest
      | "selftest" :: rest -> Selftest.main rest
      | _ -> main_run argv
    with
    | Arg.Bad msg | Arg.Help msg ->
        prerr_endline msg;
        2
    | Failure msg | Invalid_argument msg ->
        prerr_endline ("holes_bench: " ^ msg);
        1
  in
  exit code
