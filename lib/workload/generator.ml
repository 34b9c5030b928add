(** The workload executor: drives a {!Holes.Vm} with the allocation,
    lifetime and mutation behaviour described by a {!Profile}.

    {!events} draws the profile's allocation stream; {!drive} is the
    only loop that executes a stream against a VM, whether it comes
    straight from {!events} ({!run}) or from a recorded {!Trace}.

    Lifetimes are measured in bytes of subsequent allocation (the
    standard GC-literature clock); the executor maintains a death queue
    and kills objects as the clock passes their death time, so the live
    set follows the profile's steady-state target by Little's law.
    Mutation stores references from random older live objects to fresh
    ones, exercising the write barrier and remembered set. *)

open Holes_stdx

type result = {
  completed : bool;  (** false when the VM ran out of memory *)
  profile : Profile.t;
  elapsed_ms : float;
  metrics : Holes.Metrics.t;
  mutator_ms : float;
  gc_ms : float;
}

(* Sampled object size categories.  Medium bounds are fixed (they model
   the workload, not the collector configuration). *)
let medium_lo = 320
let medium_hi = Holes_heap.Units.los_threshold (* 8 KB *)

let sample_log_uniform (rng : Xrng.t) ~(lo : int) ~(hi : int) : int =
  let llo = log (float_of_int lo) and lhi = log (float_of_int hi) in
  int_of_float (exp (llo +. (Xrng.float rng *. (lhi -. llo))))

(* mean of a log-uniform distribution on [lo, hi] *)
let log_uniform_mean ~(lo : int) ~(hi : int) : float =
  let a = float_of_int lo and b = float_of_int hi in
  (b -. a) /. (log b -. log a)

type category = Small | Medium | Large

let category_dist (p : Profile.t) : category Dist.Discrete.t =
  let small_frac = max 0.0 (1.0 -. p.Profile.medium_frac -. p.Profile.large_frac) in
  let mean_small = p.Profile.small_mean in
  let mean_medium = log_uniform_mean ~lo:medium_lo ~hi:medium_hi in
  let mean_large = log_uniform_mean ~lo:(medium_hi + 64) ~hi:p.Profile.large_max in
  (* category weights proportional to bytes / mean-size = object counts *)
  Dist.Discrete.make
    [
      (small_frac /. mean_small, Small);
      (p.Profile.medium_frac /. mean_medium, Medium);
      (p.Profile.large_frac /. mean_large, Large);
    ]

let sample_size (rng : Xrng.t) (p : Profile.t) (dist : category Dist.Discrete.t) : int =
  match Dist.Discrete.sample dist rng with
  | Small ->
      (* geometric-ish around the mean, clamped to the small range *)
      let s = int_of_float (Dist.exponential rng ~mean:(p.Profile.small_mean -. 16.0)) + 16 in
      min 304 (max 16 s)
  | Medium -> sample_log_uniform rng ~lo:medium_lo ~hi:medium_hi
  | Large -> sample_log_uniform rng ~lo:(medium_hi + 64) ~hi:p.Profile.large_max

(* Lifetime in bytes-of-allocation: a short/long mixture whose mean is
   the live target (Little's law). *)
let sample_lifetime (rng : Xrng.t) (p : Profile.t) : int =
  let lt = float_of_int p.Profile.live_target in
  let s = p.Profile.short_frac in
  let mean_short = 0.06 *. lt in
  let mean_long = max mean_short ((lt -. (s *. mean_short)) /. (1.0 -. s)) in
  let mean = if Xrng.float rng < s then mean_short else mean_long in
  1 + int_of_float (Dist.exponential rng ~mean)

(* pool of recent allocations that mutation sources are drawn from *)
let pool_size = 1024

(** One step of a workload, with every random choice already drawn. *)
type event =
  | Immortal of int  (** size of a base object that never dies *)
  | Alloc of {
      size : int;
      pinned : bool;
      lifetime : int;  (** bytes of subsequent allocation until death *)
      slot : int;  (** mutation-pool slot the new object takes *)
      src : int;  (** pool slot whose object then references it, or [-1] *)
    }

(** The allocation stream of [profile]: the immortal base (plain
    small/medium objects) first, then mortal allocations until the
    profile's volume is reached.  [rng] drives all sampling, so the
    sequence is ephemeral: it can be consumed once. *)
let events ~(rng : Xrng.t) (profile : Profile.t) : event Seq.t =
  let dist = category_dist profile in
  let rec base imm () =
    if imm >= profile.Profile.immortal then allocs 0 ()
    else
      let size = min 2048 (max 32 (sample_size rng profile dist)) in
      Seq.Cons (Immortal size, base (imm + size))
  and allocs clock () =
    if clock >= profile.Profile.volume then Seq.Nil
    else
      let size = sample_size rng profile dist in
      let pinned = Xrng.float rng < profile.Profile.pin_rate in
      let lifetime = sample_lifetime rng profile in
      let slot = Xrng.int rng pool_size in
      let src =
        if Xrng.float rng < profile.Profile.mutation_rate then Xrng.int rng pool_size else -1
      in
      Seq.Cons (Alloc { size; pinned; lifetime; slot; src }, allocs (clock + size))
  in
  base 0

(** Drive [vm] with [events]: the one workload loop.  A death queue
    kills each object once the allocation clock passes its death time;
    mutation stores a reference from the pool's older object to the new
    one.  An out-of-memory VM yields [completed = false] (the paper's
    "some configurations cannot execute some of the benchmarks"). *)
let drive (vm : Holes.Vm.t) (profile : Profile.t) (events : event Seq.t) : result =
  let deaths : int Heapq.t = Heapq.create ~dummy:(-1) in
  let pool = Array.make pool_size (-1) in
  let clock = ref 0 in
  let rec reap () =
    match Heapq.min_key deaths with
    | Some k when k <= !clock -> (
        match Heapq.pop deaths with
        | Some (_, dead) ->
            Holes.Vm.kill vm dead;
            reap ()
        | None -> ())
    | _ -> ()
  in
  let step = function
    | Immortal size -> ignore (Holes.Vm.alloc vm ~size ())
    | Alloc e ->
        let id = Holes.Vm.alloc vm ~pinned:e.pinned ~size:e.size () in
        Heapq.push deaths ~key:(!clock + e.lifetime) id;
        pool.(e.slot) <- id;
        if e.src >= 0 then begin
          let src = pool.(e.src) in
          if src >= 0 && src <> id && Holes_heap.Object_table.is_alive (Holes.Vm.objects vm) src
          then Holes.Vm.write_ref vm ~src ~dst:id
        end;
        clock := !clock + e.size;
        reap ()
  in
  let completed =
    try
      Seq.iter step events;
      true
    with Holes.Vm.Out_of_memory -> false
  in
  Holes.Vm.sync_backend_stats vm;
  let cost = Holes.Vm.cost vm in
  {
    completed;
    profile;
    elapsed_ms = Holes.Cost.total_ms cost;
    metrics = Holes.Vm.metrics vm;
    mutator_ms = Holes.Cost.mutator_ns cost /. 1e6;
    gc_ms = Holes.Cost.gc_ns cost /. 1e6;
  }

(** Run [profile] against [vm], sampling with [rng]. *)
let run ?(rng = Xrng.of_seed 7) (vm : Holes.Vm.t) (profile : Profile.t) : result =
  drive vm profile (events ~rng profile)

(** Convenience: build a VM for [profile] under [cfg] (heap sized from
    the profile's minimum) and run it. *)
let run_config ~(cfg : Holes.Config.t) ~(profile : Profile.t) ?(scale = 1.0) () : result =
  let profile = Profile.scaled profile scale in
  let vm = Holes.Vm.create ~cfg ~min_heap_bytes:(Profile.min_heap profile) () in
  let rng = Xrng.of_seed (cfg.Holes.Config.seed lxor 0x5eed) in
  run ~rng vm profile
