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
}

let quick = { scale = 0.25; seeds = 2; jobs = 1 }
let full = { scale = 0.6; seeds = 5; jobs = 1 }

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

(* memo table: one entry per (config, profile, params), shared across
   figures.  Guarded by [cache_mutex]: prefetch folds can land from the
   orchestrating domain while another grid is in flight, and a bare
   concurrent Hashtbl.replace from two domains is a silent race. *)
let cache : (string, outcome) Hashtbl.t = Hashtbl.create 256
let cache_mutex = Mutex.create ()

let with_cache (f : unit -> 'a) : 'a =
  Mutex.lock cache_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_mutex) f

(** Drop every memoized outcome (tests; speedup measurement reruns). *)
let clear_cache () : unit = with_cache (fun () -> Hashtbl.reset cache)

(* results sink: when set (bench/bin [--out]), every executed trial is
   streamed as one JSONL record.  Memoized groups run once, so each
   trial of a sweep appears exactly once. *)
let sink : Sink.t option ref = ref None

let set_sink (s : Sink.t option) : unit = sink := s
let current_sink () : Sink.t option = !sink

(* trace buffer: when set ([--trace FILE]), every executed trial runs
   under a tracer view whose pid is derived from the job spec — like the
   seed, scheduling-independent — so the merged trace is identical for
   any [-j].  Timestamps come from each trial's cost model (virtual
   nanoseconds), not the host clock. *)
let tracer : Otrace.t option ref = ref None

let set_tracer (t : Otrace.t option) : unit = tracer := t

(* verifier override: when set ([--verify] in bench/bin), every trial
   runs with the paranoid heap verifier on regardless of per-config
   settings.  Changes no serialized result — only the non-serialized
   verify counters and wall-clock.  Set before trials start; worker
   domains read it but never write it. *)
let verify_all : bool ref = ref false

let set_verify (b : bool) : unit = verify_all := b

(* [Config.name] is lossy by design (it names result rows, not points of
   the configuration space), so the key spells out every axis the name
   omits — [defrag_occupancy] and the full device/arrival parameter set.
   Before this audit two configs differing only in, say, clustering or
   buffer capacity would alias one memo entry; fleet cells additionally
   encode their arrival/pool parameters in the profile name, so they can
   never alias a non-fleet cell. *)
let device_key (cfg : Holes.Config.t) : string =
  match cfg.Holes.Config.backend with
  | Holes.Config.Static -> "static"
  | Holes.Config.Device d ->
      (* the -hyb name tag carries epoch/ways already, but the key spells
         the policy out anyway: a hybrid cell must never be served from
         an untiered memo entry, whatever the name derivation does *)
      Printf.sprintf "dev:e%g:s%g:c%s:b%d:dr%d:wa%b:hy%s"
        d.Holes.Config.wear.Holes_pcm.Wear.mean_endurance
        d.Holes.Config.wear.Holes_pcm.Wear.sigma
        (match d.Holes.Config.clustering with None -> "-" | Some n -> string_of_int n)
        d.Holes.Config.buffer_capacity d.Holes.Config.dram_pages d.Holes.Config.wear_aware_pools
        (Holes_pcm.Hybrid.to_cli cfg.Holes.Config.hybrid)

let cache_key (cfg : Holes.Config.t) (profile : Holes_workload.Profile.t) (p : params) : string =
  (* [verify] changes no serialized result, but the verify_passes means
     must not be served from a verifier-off memo entry (or vice versa) *)
  Printf.sprintf "%s|h%.3f|d%b|o%.3f|n%b|v%b|%s|%s|s%.4f|n%d|seed%d" (Holes.Config.name cfg)
    cfg.Holes.Config.heap_factor cfg.Holes.Config.defrag cfg.Holes.Config.defrag_occupancy
    cfg.Holes.Config.nursery_copy
    (cfg.Holes.Config.verify || !verify_all)
    (device_key cfg) profile.Holes_workload.Profile.name p.scale p.seeds
    cfg.Holes.Config.seed

type raw_trial = {
  r_completed : bool;
  r_time : float;
  r_metrics : Holes.Metrics.t;
  r_borrowed : int;
  r_perfect_requests : int;
}

let run_trial ?(tracer = Otrace.null) ~(cfg : Holes.Config.t)
    ~(profile : Holes_workload.Profile.t) ~(scale : float) ~(seed : int) () : raw_trial =
  let cfg =
    {
      cfg with
      Holes.Config.seed;
      verify = cfg.Holes.Config.verify || !verify_all;
    }
  in
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

(* the engine job body: spec → raw trial, seeded from the spec.  Under a
   tracer each trial is one trace "process": pid from the spec hash, a
   [trial] span on the engine lane bracketing the whole run. *)
let trial_of_spec (spec : Job.spec) ~(seed : int) : raw_trial =
  let run tracer =
    run_trial ~tracer ~cfg:spec.Job.cfg ~profile:spec.Job.profile ~scale:spec.Job.scale ~seed ()
  in
  match !tracer with
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
    Engine.run ~jobs:params.jobs ?sink:!sink ~metrics:sink_metrics ~outcome_label:sink_outcome
      ~f:trial_of_spec specs
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
      with_cache (fun () -> Hashtbl.replace cache (cache_key cfg profile params) o))
    pairs

(** Populate the memo cache for a whole grid in one engine run: every
    trial of every not-yet-cached (cfg × profile) pair is sharded across
    the pool at once.  Figure drivers call this with their full grid so
    [-j] parallelism spans the grid, not one seed group. *)
let prefetch ?(params = quick) ~(cfgs : Holes.Config.t list)
    ~(profiles : Holes_workload.Profile.t list) () : unit =
  let seen = Hashtbl.create 64 in
  let pending =
    List.concat_map (fun cfg -> List.map (fun p -> (cfg, p)) profiles) cfgs
    |> List.filter (fun (cfg, p) ->
           let key = cache_key cfg p params in
           (not (Hashtbl.mem seen key))
           && begin
                Hashtbl.add seen key ();
                not (with_cache (fun () -> Hashtbl.mem cache key))
              end)
  in
  if pending <> [] then run_specs_into_cache ~params ~pairs:pending

(** Run (or fetch from cache) all trials of [cfg] × [profile]. *)
let run ?(params = quick) ~(cfg : Holes.Config.t) ~(profile : Holes_workload.Profile.t) () :
    outcome =
  let key = cache_key cfg profile params in
  match with_cache (fun () -> Hashtbl.find_opt cache key) with
  | Some o -> o
  | None ->
      run_specs_into_cache ~params ~pairs:[ (cfg, profile) ];
      with_cache (fun () ->
          match Hashtbl.find_opt cache key with Some o -> o | None -> assert false)

(** Mean time of a completed outcome, or None if any trial failed (a DNF
    point, dropped from aggregate curves as in the paper). *)
let time_if_all_completed (o : outcome) : float option =
  if o.completed = o.trials then Option.map (fun s -> s.Stats.mean) o.time_ms else None

(** Geometric-mean normalized time of [cfgf cfg_base] over [profiles],
    each benchmark normalized to its own [base] outcome.  None when any
    benchmark DNFs (curve termination). *)
let geomean_normalized ?(params = quick) ~(cfg : Holes.Config.t) ~(base : Holes.Config.t)
    ~(profiles : Holes_workload.Profile.t list) () : float option =
  let ratios =
    List.map
      (fun p ->
        let o = run ~params ~cfg ~profile:p () in
        let b = run ~params ~cfg:base ~profile:p () in
        match (time_if_all_completed o, time_if_all_completed b) with
        | Some t, Some tb when tb > 0.0 -> Some (t /. tb)
        | _ -> None)
      profiles
  in
  if List.exists (fun r -> r = None) ratios then None
  else Some (Stats.geomean (List.map Option.get ratios))
