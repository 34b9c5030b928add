(* holes-run: run one benchmark profile under one collector/failure
   configuration and print the full metrics.

     dune exec bin/holes_run.exe -- --bench pmd --rate 0.25 --dist 2cl
     dune exec bin/holes_run.exe -- --list
     dune exec bin/holes_run.exe -- --bench xalan --collector ms --heap 3.0

   Multi-seed mode: --trials N runs N seeds of the configuration through
   the experiment engine on --jobs domains (same outcome at any -j) and
   prints the aggregated statistics; --out streams one JSONL record per
   trial.

     dune exec bin/holes_run.exe -- -b pmd -r 0.25 --trials 8 -j 4 --out t.jsonl

   Observability: --trace FILE writes a Chrome trace_event JSON of the
   run (open in Perfetto / chrome://tracing; timestamps are modeled
   nanoseconds, so the file is identical at any -j); --stats prints the
   pause/hole-search/buffer-occupancy histograms.

     dune exec bin/holes_run.exe -- -b pmd --backend device --trace t.json --stats *)

open Cmdliner

(* aggregate statistics of a multi-seed engine run *)
let print_outcome (profile : Holes_workload.Profile.t) (cfg : Holes.Config.t) ~(heap : float)
    ~(jobs : int) (o : Holes_exp.Runner.outcome) : int =
  Printf.printf "benchmark:  %s (%s)\n" profile.Holes_workload.Profile.name
    profile.Holes_workload.Profile.description;
  Printf.printf "config:     %s, heap %.2fx min\n" (Holes.Config.name cfg) heap;
  Printf.printf "trials:     %d on %d worker domain%s, %d completed\n" o.Holes_exp.Runner.trials
    jobs
    (if jobs = 1 then "" else "s")
    o.Holes_exp.Runner.completed;
  (match o.Holes_exp.Runner.time_ms with
  | Some s ->
      Printf.printf "time:       %s ms\n" (Format.asprintf "%a" Holes_stdx.Stats.pp_summary s)
  | None -> Printf.printf "time:       DNF (no trial completed)\n");
  Printf.printf "GCs:        %.1f full, %.1f nursery (mean per trial)\n"
    o.Holes_exp.Runner.mean_full_gcs o.Holes_exp.Runner.mean_nursery_gcs;
  let pauses = o.Holes_exp.Runner.pause_hist in
  let mean_pause = Holes_obs.Stats.mean pauses /. 1e6 in
  if mean_pause > 0.0 then
    Printf.printf "full pause: %.3f ms mean, %.3f ms max\n" mean_pause
      (Holes_obs.Stats.max_value pauses /. 1e6);
  Printf.printf "borrowed:   %.1f perfect (DRAM) pages per trial\n"
    o.Holes_exp.Runner.mean_borrowed;
  if o.Holes_exp.Runner.mean_device_writes > 0.0 then
    Printf.printf "device:     %.0f writes, %.1f wear failures, %.1f up-calls per trial\n"
      o.Holes_exp.Runner.mean_device_writes o.Holes_exp.Runner.mean_device_failures
      o.Holes_exp.Runner.mean_upcalls;
  if o.Holes_exp.Runner.mean_verify_passes > 0.0 then
    Printf.printf "verifier:   %.1f clean passes per trial\n"
      o.Holes_exp.Runner.mean_verify_passes;
  if o.Holes_exp.Runner.completed = o.Holes_exp.Runner.trials then 0 else 2

let run list_benches bench collector line_size rate dist model compensate arraylets backend
    endurance wear_level hybrid dram_pages heap scale seed trials jobs out trace stats verify
    gc_increment verbose =
  if list_benches then begin
    print_endline "available benchmark profiles:";
    List.iter
      (fun p ->
        Printf.printf "  %-14s %s\n" p.Holes_workload.Profile.name
          p.Holes_workload.Profile.description)
      Holes_workload.Dacapo.suite_with_buggy;
    0
  end
  else
    match Holes_workload.Dacapo.find bench with
    | None ->
        Printf.eprintf "unknown benchmark %S (try --list)\n" bench;
        1
    | Some profile -> (
        let collector =
          match String.lowercase_ascii collector with
          | "ms" -> Holes.Config.Mark_sweep
          | "ix" -> Holes.Config.Immix
          | "s-ms" | "sms" -> Holes.Config.Sticky_ms
          | "s-ix" | "six" -> Holes.Config.Sticky_immix
          | other -> failwith (Printf.sprintf "unknown collector %S (ms|ix|s-ms|s-ix)" other)
        in
        let failure_dist =
          match String.lowercase_ascii dist with
          | "uniform" -> Holes.Config.Uniform
          | "1cl" -> Holes.Config.Hw_cluster 1
          | "2cl" -> Holes.Config.Hw_cluster 2
          | g -> (
              match int_of_string_opt g with
              | Some lines when lines > 0 -> Holes.Config.Granule lines
              | _ -> failwith (Printf.sprintf "unknown distribution %S (uniform|1cl|2cl|<granule-lines>)" g))
        in
        let failure_model =
          match model with
          | None -> Holes.Config.From_dist
          | Some s -> (
              match Holes_pcm.Failure_model.of_cli s with
              | Ok spec -> Holes.Config.Model spec
              | Error m -> failwith (Printf.sprintf "bad --model %S: %s" s m))
        in
        let backend =
          match String.lowercase_ascii backend with
          | "static" -> Holes.Config.Static
          | "device" ->
              let d = Holes.Config.default_device in
              let wear =
                match endurance with
                | None -> d.Holes.Config.wear
                | Some e -> { d.Holes.Config.wear with Holes_pcm.Wear.mean_endurance = e }
              in
              let dram_pages =
                match dram_pages with None -> d.Holes.Config.dram_pages | Some n -> n
              in
              Holes.Config.Device { d with Holes.Config.wear; dram_pages }
          | other -> failwith (Printf.sprintf "unknown backend %S (static|device)" other)
        in
        let wear_level =
          match Holes_pcm.Translate.of_cli wear_level with
          | Ok p -> p
          | Error m -> failwith (Printf.sprintf "bad --wear-level %S: %s" wear_level m)
        in
        let hybrid =
          match Holes_pcm.Hybrid.of_cli hybrid with
          | Ok p -> p
          | Error m -> failwith (Printf.sprintf "bad --hybrid %S: %s" hybrid m)
        in
        let cfg =
          {
            Holes.Config.default with
            Holes.Config.collector;
            line_size;
            failure_rate = rate;
            failure_dist;
            compensate;
            heap_factor = heap;
            arraylets;
            backend;
            wear_level;
            failure_model;
            verify;
            gc_slice = gc_increment;
            hybrid;
            seed;
          }
        in
        match Holes.Config.validate cfg with
        | Error m ->
            Printf.eprintf "invalid configuration: %s\n" m;
            1
        | Ok () when trials > 1 || out <> None || trace <> None ->
            (* multi-seed (or JSONL-streaming / tracing) mode: through
               the engine, so trace pids come from job specs *)
            let sink = Option.map (fun path -> Holes_engine.Sink.create ~path ()) out in
            Holes_exp.Runner.set_sink sink;
            let tracer = Option.map (fun _ -> Holes_obs.Trace.create ()) trace in
            Holes_exp.Runner.set_tracer tracer;
            Fun.protect
              ~finally:(fun () ->
                (match (tracer, trace) with
                | Some tr, Some path ->
                    Holes_obs.Trace.write tr path;
                    Printf.printf "trace:      %s (%d events%s)\n" path
                      (List.length (Holes_obs.Trace.events tr))
                      (let d = Holes_obs.Trace.dropped tr in
                       if d = 0 then "" else Printf.sprintf ", %d dropped" d)
                | _ -> ());
                Holes_exp.Runner.set_tracer None;
                (match sink with Some s -> Holes_engine.Sink.close s | None -> ());
                Holes_exp.Runner.set_sink None)
              (fun () ->
                let params = { Holes_exp.Runner.scale; seeds = trials; jobs } in
                let o = Holes_exp.Runner.run ~params ~cfg ~profile () in
                let code = print_outcome profile cfg ~heap ~jobs o in
                if stats then
                  Printf.printf "pause hist: %s\n"
                    (Holes_obs.Stats.summary_string o.Holes_exp.Runner.pause_hist);
                code)
        | Ok () ->
            let res = Holes_workload.Generator.run_config ~cfg ~profile ~scale () in
            Printf.printf "benchmark:  %s (%s)\n" profile.Holes_workload.Profile.name
              profile.Holes_workload.Profile.description;
            Printf.printf "config:     %s, heap %.2fx min\n" (Holes.Config.name cfg) heap;
            Printf.printf "completed:  %b\n" res.Holes_workload.Generator.completed;
            Printf.printf "time:       %.3f ms (mutator %.3f, gc %.3f)\n"
              res.Holes_workload.Generator.elapsed_ms res.Holes_workload.Generator.mutator_ms
              res.Holes_workload.Generator.gc_ms;
            let m = res.Holes_workload.Generator.metrics in
            Printf.printf "allocation: %d objects, %.2f MB\n" m.Holes.Metrics.objects_allocated
              (float_of_int m.Holes.Metrics.bytes_allocated /. 1048576.0);
            Printf.printf "GCs:        %d full, %d nursery\n" m.Holes.Metrics.full_gcs
              m.Holes.Metrics.nursery_gcs;
            (match Holes.Metrics.mean_full_pause_ms m with
            | Some p ->
                Printf.printf "full pause: %.3f ms mean, %.3f ms max\n" p
                  (Option.value ~default:0.0 (Holes.Metrics.max_full_pause_ms m))
            | None -> ());
            if verbose then begin
              Printf.printf "copied:     %.2f MB in %d evacuations\n"
                (float_of_int m.Holes.Metrics.bytes_copied /. 1048576.0)
                m.Holes.Metrics.objects_evacuated;
              Printf.printf "holes:      %d skips, %d lines scanned\n" m.Holes.Metrics.hole_skips
                m.Holes.Metrics.lines_scanned;
              Printf.printf "overflow:   %d allocs, %d re-searches, %d perfect fallbacks\n"
                m.Holes.Metrics.overflow_allocs m.Holes.Metrics.overflow_searches
                m.Holes.Metrics.perfect_block_fallbacks;
              Printf.printf "LOS:        %d objects, %d pages\n" m.Holes.Metrics.los_objects
                m.Holes.Metrics.los_pages;
              if m.Holes.Metrics.device_writes > 0 then begin
                Printf.printf "device:     %d reads, %d writes, %d wear failures\n"
                  m.Holes.Metrics.device_reads m.Holes.Metrics.device_writes
                  m.Holes.Metrics.device_line_failures;
                Printf.printf "fbuf:       peak occupancy %d, %d stalls\n"
                  m.Holes.Metrics.fbuf_peak_occupancy m.Holes.Metrics.fbuf_stall_events;
                Printf.printf "OS:         %d up-calls, %d page copies, %d data restores\n"
                  m.Holes.Metrics.os_upcalls m.Holes.Metrics.os_page_copies
                  m.Holes.Metrics.os_data_restores;
                Printf.printf "VMM:        %d reverse translations, %d swap-ins\n"
                  m.Holes.Metrics.reverse_translations m.Holes.Metrics.swap_ins;
                if m.Holes.Metrics.wl_active then
                  Printf.printf
                    "leveling:   %d gap moves, %d remaps, %d copies, %d meta writes, wear \
                     CoV %.3f\n"
                    m.Holes.Metrics.wl_gap_moves m.Holes.Metrics.wl_remaps
                    m.Holes.Metrics.wl_remap_copies m.Holes.Metrics.wl_meta_writes
                    m.Holes.Metrics.wear_cov;
                if m.Holes.Metrics.hybrid_active then
                  Printf.printf
                    "hybrid:     %d promotes, %d demotes, %d DRAM writes, %d resident; \
                     caram %d dedup + %d compressed (%d meta)\n"
                    m.Holes.Metrics.hyb_promotes m.Holes.Metrics.hyb_demotes
                    m.Holes.Metrics.hyb_dram_writes m.Holes.Metrics.hyb_resident
                    m.Holes.Metrics.hyb_dedup_hits m.Holes.Metrics.hyb_compressed
                    m.Holes.Metrics.hyb_meta_writes
              end
            end;
            if stats then begin
              let h = Holes_obs.Stats.summary_string in
              Printf.printf "pause hist (ns):         %s\n" (h m.Holes.Metrics.pause_hist);
              Printf.printf "nursery pause hist (ns): %s\n"
                (h m.Holes.Metrics.nursery_pause_hist);
              Printf.printf "hole search (lines):     %s\n" (h m.Holes.Metrics.hole_search_hist);
              Printf.printf "fbuf occupancy:          %s\n"
                (h m.Holes.Metrics.fbuf_occupancy_hist)
            end;
            if res.Holes_workload.Generator.completed then 0 else 2)

let cmd =
  let list_f = Arg.(value & flag & info [ "list" ] ~doc:"List benchmark profiles and exit.") in
  let bench =
    Arg.(value & opt string "pmd" & info [ "bench"; "b" ] ~docv:"NAME" ~doc:"Benchmark profile.")
  in
  let collector =
    Arg.(value & opt string "s-ix" & info [ "collector"; "c" ] ~docv:"C" ~doc:"Collector: ms, ix, s-ms or s-ix.")
  in
  let line_size =
    Arg.(value & opt int 256 & info [ "line" ] ~docv:"BYTES" ~doc:"Immix logical line size (64/128/256).")
  in
  let rate =
    Arg.(value & opt float 0.0 & info [ "rate"; "r" ] ~docv:"F" ~doc:"PCM line failure rate in [0,0.95].")
  in
  let dist =
    Arg.(value & opt string "uniform"
         & info [ "dist"; "d" ] ~docv:"D" ~doc:"Failure distribution: uniform, 1cl, 2cl, or a granule size in 64B lines.")
  in
  let model =
    Arg.(value & opt (some string) None
         & info [ "model"; "m" ] ~docv:"M"
             ~doc:"Adversarial failure model replacing --dist: corr:CLUSTER[:REGION] \
                   (spatially-correlated map), var:COV[:lognormal|gauss] (endurance \
                   variation), storm:BURST:PERIOD (bursty dynamic failures every PERIOD \
                   allocated bytes), adv:PERIOD (worst-case placement at the bump cursor).")
  in
  let compensate =
    Arg.(value & opt bool true & info [ "compensate" ] ~docv:"BOOL" ~doc:"Heap compensation h/(1-f).")
  in
  let arraylets =
    Arg.(value & flag & info [ "arraylets" ] ~doc:"Split large arrays into discontiguous arraylets (Z-rays) instead of using the perfect-page LOS.")
  in
  let backend =
    Arg.(value & opt string "static"
         & info [ "backend" ] ~docv:"B"
             ~doc:"Memory backend: static (fault-injection map) or device (full device/OS pipeline with wear).")
  in
  let endurance =
    Arg.(value & opt (some float) None
         & info [ "endurance" ] ~docv:"N"
             ~doc:"Device backend: mean per-line write endurance (lognormal).")
  in
  let wear_level =
    Arg.(value & opt string "none"
         & info [ "wear-level" ] ~docv:"W"
             ~doc:"Device backend: wear-leveling stage in the address-translation pipeline: \
                   none, startgap[:PSI], random[:PSI] or decoder[:PSI] (PSI = writes between \
                   moves, default 100).")
  in
  let hybrid =
    Arg.(value & opt string "none"
         & info [ "hybrid" ] ~docv:"H"
             ~doc:"Device backend: DRAM/PCM tiering policy: none, migrate[:EPOCH] (hot-page \
                   promotion into DRAM frames, EPOCH = charged writes per decay round), \
                   caram[:WAYS] (content-aware dedup/compression store in front of the \
                   cells), or migrate[:EPOCH]+caram[:WAYS].")
  in
  let dram_pages =
    Arg.(value & opt (some int) None
         & info [ "dram-pages" ] ~docv:"N"
             ~doc:"Device backend: DRAM frames in front of the PCM namespace (default 16).")
  in
  let heap =
    Arg.(value & opt float 2.0 & info [ "heap" ] ~docv:"X" ~doc:"Heap size as a multiple of the minimum.")
  in
  let scale =
    Arg.(value & opt float 0.5 & info [ "scale" ] ~docv:"S" ~doc:"Workload volume scale (1.0 = full).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.") in
  let trials =
    Arg.(value & opt int 1
         & info [ "trials" ] ~docv:"N"
             ~doc:"Run N seeds of the configuration through the experiment engine and print \
                   aggregate statistics (N = 1 keeps the detailed single-run output).")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Worker domains for --trials; outcomes are identical at any value.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Stream one JSONL record per trial to FILE.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace_event JSON of the run to FILE (Perfetto-loadable; \
                   virtual timestamps, identical at any --jobs).  Forces the engine path \
                   even at --trials 1.")
  in
  let stats =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print pause, hole-search and failure-buffer occupancy histograms.")
  in
  let verify =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"Run the paranoid heap verifier after every GC phase (expensive; results \
                   are guaranteed bit-identical either way).")
  in
  let gc_increment =
    Arg.(value & opt int 0
         & info [ "gc-increment" ] ~docv:"BUDGET"
             ~doc:"Incremental collection work budget per mutator slice, in mark-queue \
                   entries (0 = stop-the-world).  Total GC work is unchanged; only its \
                   interleaving with the mutator — and therefore the recorded pauses — \
                   differ.")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print detailed metrics.") in
  let doc = "run one DaCapo-style workload on the failure-aware runtime" in
  Cmd.v
    (Cmd.info "holes-run" ~doc)
    Term.(
      const run $ list_f $ bench $ collector $ line_size $ rate $ dist $ model $ compensate
      $ arraylets $ backend $ endurance $ wear_level $ hybrid $ dram_pages $ heap $ scale
      $ seed $ trials $ jobs $ out $ trace $ stats $ verify $ gc_increment $ verbose)

let () = exit (Cmd.eval' cmd)
