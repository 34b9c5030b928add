(** The Sec. 7.2 ablation, live: the device's wear leveler versus the
    failure-aware runtime.

    Unlike the retired synthetic version (which compared hand-built
    leveled/unleveled failure maps, see {!Wear_ablation.wear_map}), this
    experiment runs the actual pipeline end to end on the device
    backend: every heap line store flows logical → wear leveler →
    clustering map → cells, lines wear out under the configured
    leveling policy, and each failure travels the device → failure
    buffer → interrupt → up-call chain back into the runtime.

    The grid is {none, start-gap, random-remap, decoder-swap} ×
    {uniform, correlated, variation} boot-failure models.  The paper's
    claim (wear leveling considered harmful, Sec. 7.2) shows up as
    direction, not as a single number:

    - start-gap buys no lifetime at all — it reaches end-of-life in the
      same number of rounds as hole tolerance alone while issuing ~6%
      more device writes (gap copies) and costing ~10% more time per
      round, because the heap's own allocation rotation already levels
      the traffic the rotation would have leveled;
    - the remapping policies (random-remap / decoder-swap) defer the
      wear cliff, but they do it by scattering the deaths: the mean
      contiguous dead-line run collapses from hundreds of lines to
      single digits (the [frag] column), which is exactly the failure
      shape hole tolerance handles worst — every block ends up
      perforated, and whole-life time per round rises 10–20% over
      [none] even though fewer lines have died.

    Quick runs cap the round count for CI; [--full] runs every cell to
    device end-of-life, which is where the whole-life overhead ratios
    are meaningful. *)

open Holes_stdx
module Cfg = Holes.Config
module Wl = Holes_pcm.Wear_level
module Fm = Holes_pcm.Failure_model

let psi = 64

let policies : (string * Wl.policy option) list =
  [
    ("none", None);
    ("start-gap", Some (Wl.Start_gap { psi }));
    ("random-remap", Some (Wl.Random_remap { psi }));
    ("decoder-swap", Some (Wl.Decoder_swap { psi }));
  ]

(** Boot-failure models: the state the module is in when the workload
    starts.  Uniform is the paper's map; correlated and variation are
    the PR-5 adversaries (static maps, so they compose with any
    wear-leveling policy). *)
let models : (string * Cfg.failure_model) list =
  [
    ("uniform", Cfg.From_dist);
    ("correlated", Cfg.Model (Fm.Correlated { mean_cluster = 4.0; region_lines = 64 }));
    ("variation", Cfg.Model (Fm.Variation { cov = 0.3; shape = Holes_pcm.Wear.Lognormal }));
  ]

let cell_cfg ~(model : Cfg.failure_model) ~(policy : Wl.policy option) : Cfg.t =
  let d = Cfg.default_device in
  (* endurance low enough that lines die mid-run; clustering on (the
     paper's proposed hardware), so the clustering maps are live and
     the leveler sits above them *)
  let wear = { d.Cfg.wear with Holes_pcm.Wear.mean_endurance = 12.0 } in
  {
    Figures.base_six with
    Cfg.backend = Cfg.Device { d with Cfg.wear; clustering = Some 2 };
    failure_rate = 0.10;
    failure_model = model;
    wear_level = policy;
  }

exception Worn_out

(** What one cell measured: lifetime in workload rounds, the accumulated
    cost-model time of the completed rounds, and a postmortem of the
    dead logical lines — how many, and in how many contiguous runs.
    [dead_lines /. dead_runs] is the mean dead-run length, the
    fragmentation signal: clustered deaths retire whole blocks, while
    scattered deaths perforate every block. *)
type outcome = {
  rounds : int;
  elapsed_ms : float;
  dead_lines : int;
  dead_runs : int;
  m : Holes.Metrics.t;
}

(** Run [profile] repeatedly on one device-backed VM until it cannot
    complete a round (or [max_rounds] is reached).  Between rounds the
    whole live set is killed and a full collection runs, so survival
    reflects wear capacity loss rather than live-set leakage.  Also
    accumulates the cost-model time of the completed rounds, so cells
    can report time-per-round (the GC-overhead signal) next to lifetime.
    Both are virtual quantities — deterministic for a given config at
    any [-j].  The one aging loop behind the wearlevel, wearlife and
    hybrid tables; like [Runner.run_trial], it turns the paranoid
    verifier on when [--verify] set [Runner.verify_all]. *)
let lifetime_run ~(cfg : Cfg.t) ~(profile : Holes_workload.Profile.t) ~(scale : float)
    ~(max_rounds : int) : outcome =
  let cfg = { cfg with Cfg.verify = cfg.Cfg.verify || !Runner.verify_all } in
  let profile = Holes_workload.Profile.scaled profile scale in
  let vm = Holes.Vm.create ~cfg ~min_heap_bytes:(Holes_workload.Profile.min_heap profile) () in
  let rounds = ref 0 in
  let elapsed = ref 0.0 in
  (try
     while !rounds < max_rounds do
       let rng = Xrng.of_seed (cfg.Cfg.seed + (31 * !rounds)) in
       let res = Holes_workload.Generator.run ~rng vm profile in
       if not res.Holes_workload.Generator.completed then raise Worn_out;
       incr rounds;
       elapsed := !elapsed +. res.Holes_workload.Generator.elapsed_ms;
       let objs = Holes.Vm.objects vm in
       Holes_heap.Object_table.iter_slots objs (fun id ->
           if Holes_heap.Object_table.is_alive objs id then Holes.Vm.kill vm id);
       Holes.Vm.collect vm ~full:true
     done
   with Worn_out | Holes.Vm.Out_of_memory -> ());
  Holes.Vm.sync_backend_stats vm;
  let dead_lines = ref 0 and dead_runs = ref 0 in
  (match Holes.Vm.device_state vm with
  | None -> ()
  | Some st ->
      let dev = st.Holes.Memory_backend.device in
      let prev = ref false in
      for l = 0 to Holes_pcm.Device.nlines dev - 1 do
        let dead = not (Holes_pcm.Device.line_usable dev l) in
        if dead then incr dead_lines;
        if dead && not !prev then incr dead_runs;
        prev := dead
      done);
  {
    rounds = !rounds;
    elapsed_ms = !elapsed;
    dead_lines = !dead_lines;
    dead_runs = !dead_runs;
    m = Holes.Vm.metrics vm;
  }

type cell = {
  rounds : int;
  ms_per_round : float option;
  frag : float option;  (** mean contiguous dead-run length *)
  m : Holes.Metrics.t option;
}

(** Rounds survived and time-per-round for every policy × model cell,
    plus the leveler's own activity under the uniform model.
    One engine job per cell; a cell depends only on its config, so the
    table is bit-identical at any [-j]. *)
let table ?(params = Runner.quick) () : Table.t =
  let t =
    Table.create
      ~title:
        "Sec. 7.2 live — wear-leveling stages vs the failure-aware runtime (S-IX L256, \
         device backend, clustering on, low endurance)"
      ~headers:
        [ "policy"; "uniform"; "correlated"; "variation"; "frag"; "wear CoV"; "remaps+moves" ]
      ~aligns:
        [
          Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right;
        ]
      ()
  in
  let profile = Holes_workload.Dacapo.pmd in
  (* full runs every cell to device end-of-life (the remapping policies
     take ~5x longer to die than [none]); quick caps the rounds for CI *)
  let max_rounds = if Runner.is_full params then 40 else 8 in
  let grid =
    List.concat_map
      (fun (_, policy) -> List.map (fun (_, model) -> (policy, model)) models)
      policies
  in
  let specs =
    Array.of_list
      (List.map
         (fun (policy, model) ->
           {
             Holes_engine.Job.cfg = cell_cfg ~model ~policy;
             profile;
             (* fixed scale: the wear operating point (endurance versus
                per-round traffic) must be the same in quick and full
                runs — full only extends the round cap to end-of-life *)
             scale = 0.125;
             seed_index = 0;
           })
         grid)
  in
  let results =
    Holes_engine.Engine.run ~jobs:params.Runner.jobs
      ?sink:(Runner.current_sink ())
      ~metrics:(fun (o : outcome) ->
        [
          ("rounds", float_of_int o.rounds);
          ("round_ms", o.elapsed_ms);
          ("dead_lines", float_of_int o.dead_lines);
          ("dead_runs", float_of_int o.dead_runs);
          ("device_writes", float_of_int o.m.Holes.Metrics.device_writes);
          ("device_line_failures", float_of_int o.m.Holes.Metrics.device_line_failures);
          ("wear_cov", o.m.Holes.Metrics.wear_cov);
          ("wl_gap_moves", float_of_int o.m.Holes.Metrics.wl_gap_moves);
          ("wl_remaps", float_of_int o.m.Holes.Metrics.wl_remaps);
        ])
      ~f:(fun spec ~seed:_ ->
        (* the round RNG derives from cfg.seed, so a cell is a pure
           function of its spec *)
        lifetime_run ~cfg:spec.Holes_engine.Job.cfg ~profile:spec.Holes_engine.Job.profile
          ~scale:spec.Holes_engine.Job.scale ~max_rounds)
      specs
  in
  let cell_of i =
    match results.(i).Holes_engine.Engine.outcome with
    | Holes_engine.Pool.Done o ->
        {
          rounds = o.rounds;
          ms_per_round =
            (if o.rounds > 0 then Some (o.elapsed_ms /. float_of_int o.rounds) else None);
          frag =
            (if o.dead_runs > 0 then
               Some (float_of_int o.dead_lines /. float_of_int o.dead_runs)
             else None);
          m = Some o.m;
        }
    | Holes_engine.Pool.Failed _ ->
        { rounds = 0; ms_per_round = None; frag = None; m = None }
  in
  let nmodels = List.length models in
  let cells = Array.init (Array.length specs) cell_of in
  (* time-per-round baselines: the [none] row, per model *)
  let base = Array.init nmodels (fun mi -> cells.(mi).ms_per_round) in
  List.iteri
    (fun pi (pname, _) ->
      let fmt_cell mi =
        let c = cells.((pi * nmodels) + mi) in
        let rounds =
          if c.rounds >= max_rounds then Printf.sprintf ">=%d" c.rounds
          else string_of_int c.rounds
        in
        match (c.ms_per_round, base.(mi)) with
        | Some ms, Some b when b > 0.0 -> Printf.sprintf "%s rd @ %.2fx" rounds (ms /. b)
        | Some _, _ -> Printf.sprintf "%s rd" rounds
        | None, _ -> "DNF"
      in
      (* fragmentation + pipeline activity from the uniform-model cell *)
      let u = cells.(pi * nmodels) in
      let frag = match u.frag with Some f -> Printf.sprintf "%.1f" f | None -> "-" in
      let cov, activity =
        match u.m with
        | Some m ->
            ( Printf.sprintf "%.3f" m.Holes.Metrics.wear_cov,
              string_of_int (m.Holes.Metrics.wl_remaps + m.Holes.Metrics.wl_gap_moves) )
        | None -> ("-", "-")
      in
      Table.add_row t
        [ pname; fmt_cell 0; fmt_cell 1; fmt_cell 2; frag; cov; activity ])
    policies;
  t
