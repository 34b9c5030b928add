(** The experiment runner: configuration × workload × heap factor →
    summarized metrics, with memoization (many figures share
    configurations) and multi-seed trials with 95% confidence intervals,
    mirroring the paper's 20-invocation methodology (Sec. 5).

    Trials are submitted through {!Holes_engine.Engine}: [params.jobs]
    worker domains execute them in parallel, each trial owning its VM,
    device and VMM outright, with the seed derived deterministically
    from the job spec ({!Holes_engine.Job.seed}) — so any [-j] produces
    bit-identical outcomes.  Figures that sweep a grid should call
    {!prefetch} with the whole grid first: it shards *all* trials of the
    grid across the pool at once, while a bare {!run} can only
    parallelize within one configuration's seed group. *)

open Holes_stdx
module Engine = Holes_engine.Engine
module Job = Holes_engine.Job
module Sink = Holes_engine.Sink
module Otrace = Holes_obs.Trace
module Ostats = Holes_obs.Stats

type params = {
  scale : float;  (** workload volume scale (1.0 = full) *)
  seeds : int;  (** trials per configuration *)
  jobs : int;  (** worker domains; <= 1 runs inline on the caller *)
  sink : Sink.t option;
      (** [--out]: every executed trial streams here as one JSONL record.
          Memoized groups run once, so each trial of a sweep appears
          once. *)
  tracer : Otrace.t option;
      (** [--trace]: every trial {!trial_of_spec} runs is traced here *)
  verify : bool;
      (** [--verify]: every trial runs the paranoid heap verifier,
          whatever its config says ({!verified}) *)
}
(** The run context every figure and table takes.  It holds a sink and a
    trace buffer, so it is never compared with [=]. *)

let quick = { scale = 0.25; seeds = 2; jobs = 1; sink = None; tracer = None; verify = false }
let full = { quick with scale = 0.6; seeds = 5 }

(** Whether [p] asks for paper-grade volume.  Structural on purpose: the
    CLI rebuilds the preset record to set [jobs], so physical equality
    with [full] would misclassify it. *)
let is_full (p : params) : bool = p.scale >= full.scale

type outcome = {
  profile : string;
  cfg : Holes.Config.t;
  completed : int;  (** trials that finished *)
  trials : int;
  time_ms : Stats.summary option;  (** over completed trials *)
  mean_full_gcs : float;
  mean_nursery_gcs : float;
  mean_borrowed : float;  (** borrowed DRAM pages (lifetime) per trial *)
  (* device-backend pipeline activity (all zero on the static backend) *)
  mean_device_writes : float;
  mean_device_failures : float;  (** wear-induced line failures per trial *)
  mean_upcalls : float;  (** OS → runtime failure up-calls per trial *)
  mean_verify_passes : float;
      (** clean paranoid-verifier runs per trial (0 unless [Config.verify]) *)
  pause_hist : Ostats.hist;  (** full-GC pauses (ns) pooled over completed trials *)
}

(* memo table: one entry per cell — the config as its trials run it
   ([verified]), the profile, the scale and the seed count — compared
   structurally and shared across figures.  [Config.name] cannot key it:
   it names result rows, and omits or rounds axes such as heap_factor,
   the failure rate's decimals and the device's wear parameters.  The
   hash reaches every config and profile field, so cells that differ only
   in a late field such as heap_factor do not share a bucket.  Guarded by
   [cache_mutex]: prefetch folds can land from the orchestrating domain
   while another grid is in flight, and a bare concurrent replace from
   two domains is a silent race. *)
module Cells = Hashtbl.Make (struct
  type t = Holes.Config.t * Holes_workload.Profile.t * float * int

  let equal = ( = )
  let hash = Hashtbl.hash_param 64 256
end)

let cache : outcome Cells.t = Cells.create 256
let cache_mutex = Mutex.create ()

let with_cache (f : unit -> 'a) : 'a =
  Mutex.lock cache_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_mutex) f

(** Drop every memoized outcome (tests; speedup measurement reruns). *)
let clear_cache () : unit = with_cache (fun () -> Cells.reset cache)

(** [cfg] as a trial under [p] runs it.  [p.verify] changes no
    serialized result, only the non-serialized verify counters and
    wall-clock. *)
let verified (p : params) (cfg : Holes.Config.t) : Holes.Config.t =
  { cfg with Holes.Config.verify = cfg.Holes.Config.verify || p.verify }

let cell (p : params) (cfg : Holes.Config.t) (profile : Holes_workload.Profile.t) : Cells.key =
  (verified p cfg, profile, p.scale, p.seeds)

type raw_trial = {
  r_completed : bool;
  r_time : float;
  r_metrics : Holes.Metrics.t;
  r_borrowed : int;
  r_perfect_requests : int;
}

let run_trial ?(tracer = Otrace.null) ~(cfg : Holes.Config.t)
    ~(profile : Holes_workload.Profile.t) ~(scale : float) ~(seed : int) () : raw_trial =
  let cfg = { cfg with Holes.Config.seed } in
  let profile = Holes_workload.Profile.scaled profile scale in
  let vm =
    Holes.Vm.create ~cfg ~tracer ~min_heap_bytes:(Holes_workload.Profile.min_heap profile) ()
  in
  let rng = Xrng.of_seed (seed lxor 0x5eed) in
  let res = Holes_workload.Generator.run ~rng vm profile in
  let acct = Holes_heap.Page_stock.accounting (Holes.Vm.stock vm) in
  {
    r_completed = res.Holes_workload.Generator.completed;
    r_time = res.Holes_workload.Generator.elapsed_ms;
    r_metrics = res.Holes_workload.Generator.metrics;
    r_borrowed = Holes_osal.Accounting.total_borrowed acct;
    r_perfect_requests = Holes_osal.Accounting.perfect_requests acct;
  }

(* the engine job body: spec → raw trial, seeded from the spec.  Under
   [params.tracer] each trial is one trace "process" whose pid derives
   from the spec hash — like the seed, scheduling-independent — with a
   [trial] span on the engine lane bracketing the whole run.  Timestamps
   come from the trial's cost model (virtual nanoseconds), not the host
   clock. *)
let trial_of_spec ~(params : params) (spec : Job.spec) ~(seed : int) : raw_trial =
  let run tracer =
    run_trial ~tracer ~cfg:(verified params spec.Job.cfg) ~profile:spec.Job.profile
      ~scale:spec.Job.scale ~seed ()
  in
  match params.tracer with
  | None -> run Otrace.null
  | Some tr ->
      let v = Otrace.view tr ~pid:(1 + (Job.seed spec land 0x3FFFFFFF)) in
      Otrace.name_process v (Job.label spec);
      Otrace.begin_span v ~tid:Otrace.tid_engine "trial";
      let r = run v in
      Otrace.end_span v ~tid:Otrace.tid_engine "trial" ~args:[ ("time_ms", r.r_time) ];
      r

(* JSONL payload of one trial: the *complete* metrics snapshot — every
   counter plus the pause/search/occupancy histogram summaries — not the
   hand-picked subset the records used to carry.  Downstream analysis
   should never need a rerun with different verbosity. *)
let sink_metrics (t : raw_trial) : (string * float) list =
  ("time_ms", t.r_time)
  :: ("borrowed", float_of_int t.r_borrowed)
  :: ("perfect_requests", float_of_int t.r_perfect_requests)
  :: Holes.Metrics.to_fields t.r_metrics

let sink_outcome (t : raw_trial) : string = if t.r_completed then "ok" else "oom"

(* Fold raw trials into the CI statistics the figures consume.  [trials]
   is the planned count; a crashed job (engine [Failed]) contributes to
   the denominator but has no metrics. *)
let outcome_of_trials ~(cfg : Holes.Config.t) ~(profile : Holes_workload.Profile.t)
    ~(trials : int) (raw : raw_trial list) : outcome =
  let done_ = List.filter (fun t -> t.r_completed) raw in
  let meanf f = match raw with [] -> 0.0 | _ -> Stats.mean (List.map f raw) in
  {
    profile = profile.Holes_workload.Profile.name;
    cfg;
    completed = List.length done_;
    trials;
    time_ms =
      (match done_ with
      | [] -> None
      | _ -> Some (Stats.summarize (List.map (fun t -> t.r_time) done_)));
    mean_full_gcs = meanf (fun t -> float_of_int t.r_metrics.Holes.Metrics.full_gcs);
    mean_nursery_gcs = meanf (fun t -> float_of_int t.r_metrics.Holes.Metrics.nursery_gcs);
    mean_borrowed = meanf (fun t -> float_of_int t.r_borrowed);
    mean_device_writes = meanf (fun t -> float_of_int t.r_metrics.Holes.Metrics.device_writes);
    mean_device_failures =
      meanf (fun t -> float_of_int t.r_metrics.Holes.Metrics.device_line_failures);
    mean_upcalls = meanf (fun t -> float_of_int t.r_metrics.Holes.Metrics.os_upcalls);
    mean_verify_passes =
      meanf (fun t -> float_of_int t.r_metrics.Holes.Metrics.verify_passes);
    pause_hist =
      Ostats.merged (List.map (fun t -> t.r_metrics.Holes.Metrics.pause_hist) done_);
  }

(* run a planned spec array through the engine and fold each contiguous
   [seeds]-sized slice (one (cfg, profile) pair) into the cache *)
let run_specs_into_cache ~(params : params)
    ~(pairs : (Holes.Config.t * Holes_workload.Profile.t) list) : unit =
  let specs = Engine.plan_pairs ~pairs ~scale:params.scale ~seeds:params.seeds in
  let results =
    Engine.run ~jobs:params.jobs ?sink:params.sink ~metrics:sink_metrics
      ~outcome_label:sink_outcome ~f:(trial_of_spec ~params) specs
  in
  List.iteri
    (fun gi (cfg, profile) ->
      let raw =
        List.init params.seeds (fun i ->
            match results.((gi * params.seeds) + i).Engine.outcome with
            | Holes_engine.Pool.Done t -> Some t
            | Holes_engine.Pool.Failed _ -> None)
        |> List.filter_map Fun.id
      in
      let o = outcome_of_trials ~cfg ~profile ~trials:params.seeds raw in
      with_cache (fun () -> Cells.replace cache (cell params cfg profile) o))
    pairs

(** Populate the memo cache for a whole grid in one engine run: every
    trial of every not-yet-cached (cfg × profile) pair is sharded across
    the pool at once.  Figure drivers call this with their full grid so
    [-j] parallelism spans the grid, not one seed group. *)
let prefetch ?(params = quick) ~(cfgs : Holes.Config.t list)
    ~(profiles : Holes_workload.Profile.t list) () : unit =
  let seen = Cells.create 64 in
  let pending =
    List.concat_map (fun cfg -> List.map (fun p -> (cfg, p)) profiles) cfgs
    |> List.filter (fun (cfg, p) ->
           let key = cell params cfg p in
           (not (Cells.mem seen key))
           && begin
                Cells.add seen key ();
                not (with_cache (fun () -> Cells.mem cache key))
              end)
  in
  if pending <> [] then run_specs_into_cache ~params ~pairs:pending

(** Run (or fetch from cache) all trials of [cfg] × [profile]. *)
let run ?(params = quick) ~(cfg : Holes.Config.t) ~(profile : Holes_workload.Profile.t) () :
    outcome =
  let key = cell params cfg profile in
  match with_cache (fun () -> Cells.find_opt cache key) with
  | Some o -> o
  | None ->
      run_specs_into_cache ~params ~pairs:[ (cfg, profile) ];
      with_cache (fun () ->
          match Cells.find_opt cache key with Some o -> o | None -> assert false)

(** Mean time of a completed outcome, or None if any trial failed (a DNF
    point, dropped from aggregate curves as in the paper). *)
let time_if_all_completed (o : outcome) : float option =
  if o.completed = o.trials then Option.map (fun s -> s.Stats.mean) o.time_ms else None

(** [cfg]'s mean time on [profile] normalized to [base]'s; None when
    either DNFs. *)
let ratio ?(params = quick) ~(cfg : Holes.Config.t) ~(base : Holes.Config.t)
    (profile : Holes_workload.Profile.t) : float option =
  let o = run ~params ~cfg ~profile () in
  let b = run ~params ~cfg:base ~profile () in
  match (time_if_all_completed o, time_if_all_completed b) with
  | Some t, Some tb when tb > 0.0 -> Some (t /. tb)
  | _ -> None

(** Geometric mean of {!ratio} over [profiles].  None when any
    benchmark DNFs (curve termination). *)
let geomean_normalized ?(params = quick) ~(cfg : Holes.Config.t) ~(base : Holes.Config.t)
    ~(profiles : Holes_workload.Profile.t list) () : float option =
  let ratios = List.map (ratio ~params ~cfg ~base) profiles in
  if List.mem None ratios then None else Some (Stats.geomean (List.filter_map Fun.id ratios))
