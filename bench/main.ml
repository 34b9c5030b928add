(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. 6).  Host wall-clock lives elsewhere: the hot-path
   kernels in bench/microbench.ml and the end-to-end workloads in
   bench/e2e.

   Usage:
     main.exe                 regenerate everything (quick parameters)
     main.exe --full          paper-grade trial counts / workload scale
     main.exe -j N            run trials on N worker domains (N = "max"
                              for one per spare core); tables are
                              bit-identical at any -j
     main.exe --out F.jsonl   stream one JSONL record per trial to F
     main.exe --trace F.json  write a Chrome trace_event JSON of every
                              trial of fig3 … fig10, pauses, headline,
                              sensitivity and ablation (not of the
                              wearlevel, wearlife, hybrid or fleet
                              tables; Perfetto-loadable; virtual
                              timestamps).  Identical at any -j until
                              its 2^18-event ring overflows; then the
                              events it keeps depend on scheduling
     main.exe --verify        run the paranoid heap verifier after every
                              GC phase of every trial except the fleet
                              figure's (slower; changes no serialized
                              result)
     main.exe fig3 … fig10    a single figure
     main.exe pauses          the Sec. 4.2 pause-time table
     main.exe headline        the Sec. 8 headline overheads
     main.exe wearlevel       the Sec. 7.2 wear-leveling ablation
     main.exe wearlife        device-backend wear-lifetime sweep
     main.exe fleet           the fleet-serving tail-latency figure
     main.exe hybrid          the DRAM/PCM tiering absorption figure
     main.exe figures-quick   reduced CI grid (fig4 + headline +
                              wearlevel + fleet + hybrid + wearlife, the
                              last four to their own sink files)
     main.exe speedup         wall-clock of the quick grid, -j 1 vs -j max

   An unknown target or flag exits 2 before anything runs. *)

let figures : (string * (params:Holes_exp.Runner.params -> Holes_stdx.Table.t)) list =
  [
    ("fig3", fun ~params -> Holes_exp.Figures.fig3 ~params ());
    ("fig4", fun ~params -> Holes_exp.Figures.fig4 ~params ());
    ("fig5", fun ~params -> Holes_exp.Figures.fig5 ~params ());
    ("fig6a", fun ~params -> Holes_exp.Figures.fig6a ~params ());
    ("fig6b", fun ~params -> Holes_exp.Figures.fig6b ~params ());
    ("fig7", fun ~params -> Holes_exp.Figures.fig7 ~params ());
    ("fig8", fun ~params -> Holes_exp.Figures.fig8 ~params ());
    ("fig9a", fun ~params -> Holes_exp.Figures.fig9a ~params ());
    ("fig9b", fun ~params -> Holes_exp.Figures.fig9b ~params ());
    ("fig10", fun ~params -> Holes_exp.Figures.fig10 ~params ());
    ("pauses", fun ~params -> Holes_exp.Figures.pauses ~params ());
    ("headline", fun ~params -> Holes_exp.Figures.headline ~params ());
    ("sensitivity", fun ~params -> Holes_exp.Figures.sensitivity ~params ());
    ("wearlevel", fun ~params -> Holes_exp.Wear_policies.table ~params ());
    ("wearlife", fun ~params -> Holes_exp.Wear_lifetime.table ~params ());
    ("fleet", fun ~params -> Holes_exp.Fleet_figure.table ~params ());
    ("hybrid", fun ~params -> Holes_exp.Hybrid_figure.table ~params ());
    ("ablation", fun ~params -> Holes_exp.Figures.ablation ~params ());
  ]

(* `figures-quick` (CI): the reduced grid, then the device and fleet
   tables at its operating point.  Those joined the CI grid later than
   the original figures; each streams its trials to a *separate* sink
   file next to --out (results-wearlevel.jsonl, results-fleet.jsonl,
   ...) so the long-standing results.jsonl stream stays record-for-record
   comparable across releases. *)
let run_quick_grid ~(params : Holes_exp.Runner.params) ~out =
  List.iter Holes_stdx.Table.print (Holes_exp.Figures.quick_grid params);
  let params = Holes_exp.Figures.quick_params params in
  let derived_path tag =
    Option.map
      (fun p ->
        let ext = Filename.extension p in
        Filename.remove_extension p ^ "-" ^ tag ^ ext)
      out
  in
  List.iter
    (fun tag ->
      let path = derived_path tag in
      let sink =
        if path <> None || params.Holes_exp.Runner.jobs > 1 then
          Some (Holes_engine.Sink.create ?path ())
        else None
      in
      Fun.protect
        ~finally:(fun () -> Option.iter Holes_engine.Sink.close sink)
        (fun () ->
          Holes_stdx.Table.print
            ((List.assoc tag figures) ~params:{ params with Holes_exp.Runner.sink })))
    [ "wearlevel"; "fleet"; "hybrid"; "wearlife" ]

(* `speedup`: measure the parallelism win instead of asserting it — the
   reduced grid, wall-clocked at -j 1 and -j max from a cold memo cache
   each time. *)
let run_speedup ~(params : Holes_exp.Runner.params) =
  let time_with jobs =
    Holes_exp.Runner.clear_cache ();
    let t0 = Unix.gettimeofday () in
    ignore (Holes_exp.Figures.quick_grid { params with Holes_exp.Runner.jobs });
    Unix.gettimeofday () -. t0
  in
  let jmax = Holes_engine.Engine.default_jobs () in
  let t1 = time_with 1 in
  let tn = time_with jmax in
  Printf.printf
    "quick figure grid wall-clock: -j 1 = %.2f s, -j %d = %.2f s, speedup %.2fx (%d cores)\n"
    t1 jmax tn (t1 /. tn)
    (Domain.recommended_domain_count ())

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse (jobs, out, trace, fullp, verify, names) = function
    | [] -> (jobs, out, trace, fullp, verify, List.rev names)
    | "--full" :: rest -> parse (jobs, out, trace, true, verify, names) rest
    | "--verify" :: rest -> parse (jobs, out, trace, fullp, true, names) rest
    | ("-j" | "--jobs") :: n :: rest ->
        let j =
          if n = "max" then Holes_engine.Engine.default_jobs ()
          else
            match int_of_string_opt n with
            | Some j when j >= 1 -> j
            | _ -> failwith (Printf.sprintf "bad -j value %S (positive integer or \"max\")" n)
        in
        parse (j, out, trace, fullp, verify, names) rest
    | "--out" :: path :: rest -> parse (jobs, Some path, trace, fullp, verify, names) rest
    | "--trace" :: path :: rest -> parse (jobs, out, Some path, fullp, verify, names) rest
    | name :: rest -> parse (jobs, out, trace, fullp, verify, name :: names) rest
  in
  let jobs, out, trace, fullp, verify, args = parse (1, None, None, false, false, []) args in
  let targets = List.map fst figures @ [ "figures-quick"; "speedup" ] in
  (match List.filter (fun n -> not (List.mem n targets)) args with
  | [] -> ()
  | bad ->
      List.iter (Printf.eprintf "unknown target or flag %s\n") bad;
      Printf.eprintf "valid targets: %s\n" (String.concat " " targets);
      exit 2);
  (* stream trials to --out; show live progress whenever domains run *)
  let sink =
    if out <> None || jobs > 1 then Some (Holes_engine.Sink.create ?path:out ())
    else None
  in
  let tracer = Option.map (fun _ -> Holes_obs.Trace.create ()) trace in
  let params =
    let p = if fullp then Holes_exp.Runner.full else Holes_exp.Runner.quick in
    { p with Holes_exp.Runner.jobs; sink; tracer; verify }
  in
  let finish () =
    (match (tracer, trace) with
    | Some tr, Some path ->
        Holes_obs.Trace.write tr path;
        Printf.printf "(trace: %s, %d events%s)\n" path
          (List.length (Holes_obs.Trace.events tr))
          (let d = Holes_obs.Trace.dropped tr in
           if d = 0 then "" else Printf.sprintf ", %d dropped" d)
    | _ -> ());
    Option.iter Holes_engine.Sink.close sink
  in
  Fun.protect ~finally:finish (fun () ->
      let run_one = function
        | "figures-quick" -> run_quick_grid ~params ~out
        | "speedup" -> run_speedup ~params
        | name ->
            let t0 = Unix.gettimeofday () in
            Holes_stdx.Table.print ((List.assoc name figures) ~params);
            Printf.printf "(%s generated in %.1f s)\n\n%!" name (Unix.gettimeofday () -. t0)
      in
      match args with
      | [] ->
          Printf.printf "Regenerating all paper tables/figures (%s parameters, -j %d)\n\n%!"
            (if fullp then "full" else "quick")
            jobs;
          List.iter (fun (n, _) -> run_one n) figures
      | names -> List.iter run_one names)
