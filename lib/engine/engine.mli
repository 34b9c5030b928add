(** The experiment engine: plans a (configuration × profile × seed)
    grid, fans it out over worker domains ({!Pool.run_all}), and streams
    each completed trial to a {!Sink}.

    {b Determinism contract.}  A trial's result is a function of its
    {!Job.spec} alone — the seed comes from {!Job.seed}, every trial
    owns its VM/device/VMM outright, and results are returned indexed by
    spec regardless of scheduling — so any [-j] produces bit-identical
    outcomes and only wall-clock changes.  The sink's {e line order} is
    completion order; everything folded from the returned array is
    order-stable.  Event traces inherit the same property: trace process
    ids derive from the spec (see [Holes_obs.Trace]), so a sorted trace
    is identical at any [-j]. *)

type 'a trial = {
  spec : Job.spec;  (** the planned point this trial executed *)
  seed : int;  (** the derived seed the trial ran with *)
  outcome : 'a Pool.outcome;  (** value or captured exception *)
  worker : int;  (** domain that ran it (informational) *)
  duration_s : float;  (** wall-clock seconds (informational) *)
}
(** One executed trial, indexed by its spec. *)

val default_jobs : unit -> int
(** Default parallelism: one worker per spare core
    ({!Pool.default_domains}). *)

val plan_pairs :
  pairs:(Holes.Config.t * Holes_workload.Profile.t) list ->
  scale:float ->
  seeds:int ->
  Job.spec array
(** One job per (cfg × profile) pair × seed index.  Seed indices are
    contiguous per pair, so a pair's trials occupy a contiguous slice of
    the returned array.

    @raise Invalid_argument if [seeds < 1]. *)

val plan :
  cfgs:Holes.Config.t list ->
  profiles:Holes_workload.Profile.t list ->
  scale:float ->
  seeds:int ->
  Job.spec array
(** Full cross product of [cfgs] × [profiles] × seed indices. *)

val run :
  ?jobs:int ->
  ?sink:Sink.t ->
  ?metrics:('a -> (string * float) list) ->
  ?outcome_label:('a -> string) ->
  f:(Job.spec -> seed:int -> 'a) ->
  Job.spec array ->
  'a trial array
(** [run ~f specs] executes every spec through [f] on [jobs] domains,
    the caller included (default {!default_jobs}; [jobs <= 1] spawns
    none, and every [jobs] takes the same path, {!Pool.run_all}).  Each
    finished trial is recorded to [sink] as it completes, with [metrics]
    and [outcome_label] supplying the record's payload for successful
    jobs (failed jobs record outcome ["error"] and no metrics). *)
