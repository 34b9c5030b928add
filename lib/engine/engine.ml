(** The experiment engine: plans a (configuration × profile × seed)
    grid, fans it out over worker domains ({!Pool.run_all}), and streams
    each completed trial to a {!Sink}.

    Determinism contract: a trial's result is a function of its
    {!Job.spec} alone — the seed comes from {!Job.seed}, every trial owns
    its VM/device/VMM outright, and results are returned indexed by spec
    regardless of scheduling — so any [-j] produces bit-identical
    outcomes and only wall-clock changes.  The sink's *line order* is
    completion order; everything folded from the returned array is
    order-stable. *)

type 'a trial = {
  spec : Job.spec;
  seed : int;  (** the derived seed the trial ran with *)
  outcome : 'a Pool.outcome;
  worker : int;
  duration_s : float;
}

(** Default parallelism: one worker per spare core. *)
let default_jobs () : int = Pool.default_domains ()

(** One job per (cfg × profile) pair × seed index.  Seed indices are
    contiguous per pair, so a pair's trials occupy a contiguous slice of
    the returned array. *)
let plan_pairs ~(pairs : (Holes.Config.t * Holes_workload.Profile.t) list) ~(scale : float)
    ~(seeds : int) : Job.spec array =
  if seeds < 1 then invalid_arg "Engine.plan_pairs: seeds must be >= 1";
  pairs
  |> List.concat_map (fun (cfg, profile) ->
         List.init seeds (fun seed_index -> { Job.cfg; profile; scale; seed_index }))
  |> Array.of_list

(** Full cross product of [cfgs] × [profiles] × seed indices. *)
let plan ~(cfgs : Holes.Config.t list) ~(profiles : Holes_workload.Profile.t list)
    ~(scale : float) ~(seeds : int) : Job.spec array =
  plan_pairs
    ~pairs:(List.concat_map (fun cfg -> List.map (fun p -> (cfg, p)) profiles) cfgs)
    ~scale ~seeds

(** Run every spec through [f] on [jobs] domains, the caller included
    ({!Pool.run_all}).  Each finished trial is recorded to [sink] as it
    completes, with [metrics] and [outcome_label] supplying the record's
    payload for successful jobs (failed jobs record outcome ["error"] and
    no metrics). *)
let run ?(jobs = default_jobs ()) ?(sink : Sink.t option)
    ?(metrics : ('a -> (string * float) list) option)
    ?(outcome_label : ('a -> string) option) ~(f : Job.spec -> seed:int -> 'a)
    (specs : Job.spec array) : 'a trial array =
  let n = Array.length specs in
  (match sink with Some s -> Sink.plan s n | None -> ());
  let to_sink i (r : 'a Pool.result) : unit =
    match sink with
    | None -> ()
    | Some s ->
        let spec = specs.(i) in
        let outcome, metrics =
          match r.Pool.value with
          | Pool.Done v ->
              ( (match outcome_label with Some l -> l v | None -> "ok"),
                match metrics with Some m -> m v | None -> [] )
          | Pool.Failed _ -> ("error", [])
        in
        Sink.record s ~config:(Holes.Config.name spec.Job.cfg)
          ~profile:spec.Job.profile.Holes_workload.Profile.name ~seed:(Job.seed spec)
          ~seed_index:spec.Job.seed_index ~worker:r.Pool.worker ~duration_s:r.Pool.duration_s
          ~outcome ~metrics
  in
  Pool.run_all ~on_done:to_sink ~domains:jobs ~n (fun i -> f specs.(i) ~seed:(Job.seed specs.(i)))
  |> Array.mapi (fun i (r : 'a Pool.result) ->
         {
           spec = specs.(i);
           seed = Job.seed specs.(i);
           outcome = r.Pool.value;
           worker = r.Pool.worker;
           duration_s = r.Pool.duration_s;
         })
