(* holes_bench selftest: the smoke test run by `dune runtest`.

   Every workload at the smoke size, on the default and the held-out
   seed, untraced and traced.  Checks that BENCHMARK.json declares the
   benchmark's workloads and metrics (names and units), that every
   end-to-end metric is measured and never 0, that every correctness check
   passes with no failed operation, that the traced run reproduces the
   untraced digest, and that a fleet report short of a device shard is
   noticed.  Silent unless a check fails. *)

let main (argv : string list) : int =
  let path = ref "BENCHMARK.json" in
  Arg.parse_argv ~current:(ref 0) (Array.of_list ("selftest" :: argv))
    [ ("--benchmark", Arg.Set_string path, "FILE the BENCHMARK.json to check against") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "holes_bench.exe selftest [--benchmark FILE]";
  let bench = Json.read_file !path in
  let errors = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        incr errors;
        Printf.printf "FAIL %s\n%!" s)
      fmt
  in
  let declared key =
    List.map
      (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))
      (Json.to_list (Json.member key bench))
  in
  let names_units l = List.map (fun (n, u, _) -> (n, u)) l in
  if declared "end_to_end" <> names_units Measure.end_to_end then
    fail "BENCHMARK.json end_to_end does not match the metrics the benchmark reports";
  if declared "per_layer" <> names_units Measure.per_layer then
    fail "BENCHMARK.json per_layer does not match the metrics the benchmark reports";
  let workloads =
    List.map (fun w -> Json.to_str (Json.member "name" w)) (Json.to_list (Json.member "workloads" bench))
  in
  if workloads <> Measure.workloads then fail "BENCHMARK.json workloads do not match the benchmark's";
  List.iter
    (fun workload ->
      List.iter
        (fun seed ->
          let run trace =
            let r = Measure.run ~workload ~size:Batch.Smoke ~seed ~seconds:0.0 ~trace () in
            let tag = Printf.sprintf "%s seed %d trace %b" workload seed trace in
            if not trace then
              List.iter
                (fun (n, _, _) ->
                  match List.assoc_opt n r.Measure.values with
                  | Some v when v > 0.0 -> ()
                  | Some v -> fail "%s: %s reads %g" tag n v
                  | None -> fail "%s: %s is not measured" tag n)
                Measure.end_to_end;
            List.iter
              (fun (c : Measure.check) -> if not c.Measure.ok then fail "%s: %s %s" tag c.Measure.what c.Measure.detail)
              r.Measure.checks;
            if r.Measure.failed > 0 then fail "%s: %d failed operations" tag r.Measure.failed;
            r
          in
          let untraced = run false and traced = run true in
          if untraced.Measure.digest <> traced.Measure.digest then
            fail "%s seed %d: traced digest %s <> untraced %s" workload seed traced.Measure.digest
              untraced.Measure.digest)
        [ Measure.default_seed; Measure.held_out_seed ])
    Measure.workloads;
  (* a fleet shard that raises is left out of Sim.run's merged report;
     the run must notice the report is short of a device *)
  let module Sim = Holes_fleet.Sim in
  let module Job = Holes_engine.Job in
  let p = Fleet_wl.params Batch.Smoke ~seed:Measure.default_seed in
  let parts =
    List.filter_map
      (fun (spec : Job.spec) ->
        if spec.Job.seed_index = 0 then None
        else
          Some (Sim.run_device p ~device_index:spec.Job.seed_index ~seed:(Job.seed spec) ~view:Holes_obs.Trace.null))
      (Array.to_list (Sim.specs p))
  in
  let short = Holes_fleet.Report.merge ~duration_ms:p.Sim.duration_ms ~tenants:p.Sim.tenants parts in
  if Fleet_wl.missing_shards p short <> 1 then
    fail "a fleet report without device 0 counts %d missing shards, not 1" (Fleet_wl.missing_shards p short);
  if !errors = 0 then 0 else 1
