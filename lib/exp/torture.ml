(** Seeded torture schedules for the failure-aware collector.

    Each seed deterministically selects a configuration (collector,
    line size, failure rate, failure model, backend) and a fuzz
    schedule that interleaves mutator work (allocation, deaths,
    reference stores), dynamic failure injection, forced collections
    and explicit runs of the paranoid heap verifier ({!Holes.Verify}).
    The VM is created with [verify = true], so the verifier also runs
    after every GC phase.

    Outcomes distinguish three cases: a clean run, a run that
    legitimately exhausted the heap (torture heaps are small; OOM is an
    expected outcome, not a bug), and an invariant violation.  For a
    violation the caller can print {!repro_command}, which re-runs
    exactly that seed and schedule.

    Used by [bin/torture.exe], the CI torture job, and
    [test/test_verify.ml]. *)

open Holes_stdx
module Cfg = Holes.Config
module Vm = Holes.Vm
module Verify = Holes.Verify
module Metrics = Holes.Metrics
module Fm = Holes_pcm.Failure_model

type outcome = {
  seed : int;
  config : string;  (** [Config.name] of the seed-selected configuration *)
  steps_run : int;
  allocs : int;
  injections : int;  (** direct dynamic-failure strikes on live objects *)
  wl_toggles : int;  (** mid-run wear-leveling policy toggles (device seeds) *)
  hyb_toggles : int;  (** mid-run DRAM/PCM tiering policy toggles (device seeds) *)
  inc_toggles : int;  (** mid-run incremental-collection budget toggles *)
  churns : int;  (** mid-run tenant spawn/verify/detach cycles (device seeds) *)
  gcs : int;  (** nursery + full collections *)
  explicit_verifies : int;  (** verifier runs outside the post-GC hook *)
  verify_passes : int;  (** clean verifier runs, including post-GC hooks *)
  verify_checks : int;  (** individual invariant checks performed *)
  completed : bool;  (** [false]: the schedule ran the heap out of memory *)
  violation : string option;  (** an invariant violation or unexpected exception *)
}

let default_steps = 1200

(* Torture heaps are deliberately tiny so that schedules reach GC,
   evacuation, overflow and perfect-block fallback within ~1k steps. *)
let min_heap_bytes = 256 * 1024

(* Heap of the short-lived neighbour VM a churn op places on the same
   device node (device seeds only). *)
let churn_heap_bytes = 64 * 1024

let repro_command ~(seed : int) ~(steps : int) : string =
  if steps = default_steps then
    Printf.sprintf "dune exec bin/torture.exe -- --seeds %d" seed
  else Printf.sprintf "dune exec bin/torture.exe -- --seeds %d --steps %d" seed steps

(** The configuration exercised by [seed].  Purely a function of the
    seed: the 0..99 CI bucket sweeps collectors, line sizes, rates and
    every failure model, including the device backend's wear chain. *)
let config_of_seed (seed : int) : Cfg.t =
  let rng = Xrng.of_seed (0x70AC + (seed * 0x9E3779B9)) in
  let collector = if Xrng.int rng 4 = 0 then Cfg.Immix else Cfg.Sticky_immix in
  let line_size = [| 64; 128; 256 |].(Xrng.int rng 3) in
  let failure_rate = [| 0.10; 0.25; 0.50 |].(Xrng.int rng 3) in
  let arraylets = Xrng.int rng 5 = 0 in
  let heap_factor = 1.6 +. (0.2 *. float_of_int (Xrng.int rng 8)) in
  (* one seed in eight runs the full device -> OS -> runtime wear
     pipeline; dynamic models are injector-driven and Static-only, so
     the device seeds fall back to the paper's distributions *)
  let device = seed mod 8 = 7 in
  let backend = if device then Cfg.Device Cfg.default_device else Cfg.Static in
  let failure_model =
    if device then Cfg.From_dist
    else
      match Xrng.int rng 8 with
      | 0 -> Cfg.From_dist (* uniform *)
      | 1 -> Cfg.From_dist
      | 2 ->
          Cfg.Model
            (Fm.Correlated
               { mean_cluster = float_of_int (2 + Xrng.int rng 6); region_lines = 64 })
      | 3 ->
          Cfg.Model
            (Fm.Variation
               {
                 cov = 0.2 +. (0.1 *. float_of_int (Xrng.int rng 3));
                 shape = (if Xrng.int rng 2 = 0 then Holes_pcm.Wear.Lognormal else Holes_pcm.Wear.Gaussian);
               })
      | 4 | 5 ->
          Cfg.Model
            (Fm.Storm
               {
                 mean_burst = float_of_int (2 + Xrng.int rng 6);
                 period_bytes = 32768 + Xrng.int rng 32768;
               })
      | _ -> Cfg.Model (Fm.Adversarial { period_bytes = 16384 + Xrng.int rng 16384 })
  in
  let failure_dist =
    match Xrng.int rng 4 with
    | 0 -> Cfg.Granule 4
    | 1 -> Cfg.Hw_cluster 1
    | _ -> Cfg.Uniform
  in
  (* device seeds also draw a boot wear-leveling policy (drawn last so
     the other fields keep the values they had before leveling existed
     for any given seed) *)
  let wear_level =
    if not device then None
    else
      let psi = 24 + Xrng.int rng 96 in
      match Xrng.int rng 4 with
      | 0 -> None
      | 1 -> Some (Holes_pcm.Wear_level.Start_gap { psi })
      | 2 -> Some (Holes_pcm.Wear_level.Random_remap { psi })
      | _ -> Some (Holes_pcm.Wear_level.Decoder_swap { psi })
  in
  (* incremental marking budget — drawn last for the same reason as
     wear_level, so pre-existing seeds keep their other field values:
     half the seeds stay stop-the-world, the rest split between tight
     and generous slice budgets *)
  let gc_slice =
    match Xrng.int rng 4 with
    | 0 | 1 -> 0
    | 2 -> 32 + Xrng.int rng 96
    | _ -> 256 + Xrng.int rng 512
  in
  (* device seeds also draw a boot DRAM/PCM tiering policy — again
     drawn last so earlier fields keep their per-seed values: a quarter
     of the device seeds boot untiered (the schedule may still toggle
     tiering on mid-run), the rest split across migration, the content
     store, and both combined *)
  let hybrid =
    if not device then Holes_pcm.Hybrid.none
    else
      let epoch = 256 + Xrng.int rng 512 in
      let ways = [| 2; 4; 8 |].(Xrng.int rng 3) in
      match Xrng.int rng 4 with
      | 0 -> Holes_pcm.Hybrid.none
      | 1 -> { Holes_pcm.Hybrid.migrate_epoch = Some epoch; caram_ways = None }
      | 2 -> { Holes_pcm.Hybrid.migrate_epoch = None; caram_ways = Some ways }
      | _ -> { Holes_pcm.Hybrid.migrate_epoch = Some epoch; caram_ways = Some ways }
  in
  {
    Cfg.default with
    Cfg.collector;
    line_size;
    failure_rate;
    failure_dist;
    arraylets;
    heap_factor;
    backend;
    failure_model;
    wear_level;
    gc_slice;
    hybrid;
    verify = true;
    seed = 0xBEEF + seed;
  }

let run_one ?(steps = default_steps) ~(seed : int) () : outcome =
  let cfg = config_of_seed seed in
  let rng = Xrng.of_seed (0x5EED + (seed * 0x61C88647)) in
  (* Device seeds bring up the node explicitly — sized for the main VM
     plus a couple of churn neighbours — so the schedule can attach and
     detach tenant VMs on the shared node mid-run, the way the fleet
     pool does at eviction time. *)
  let node =
    match cfg.Cfg.backend with
    | Cfg.Static -> None
    | Cfg.Device params ->
        let device_pages =
          Vm.heap_pages cfg ~min_heap_bytes
          + (2 * Vm.heap_pages cfg ~min_heap_bytes:churn_heap_bytes)
        in
        Some (Holes.Memory_backend.create_node ~cfg ~params ~device_pages ())
  in
  let vm = Vm.create ~cfg ?node ~min_heap_bytes () in
  let static = Option.is_none node in
  (* live set with O(1) random removal (swap with the last slot) *)
  let live = Array.make 8192 0 in
  let nlive = ref 0 in
  let push id =
    if !nlive = Array.length live then begin
      let i = Xrng.int rng !nlive in
      decr nlive;
      Vm.kill vm live.(i);
      live.(i) <- live.(!nlive)
    end;
    live.(!nlive) <- id;
    incr nlive
  in
  let remove i =
    let id = live.(i) in
    decr nlive;
    live.(i) <- live.(!nlive);
    id
  in
  (* Large objects live on perfect pages (or borrowed DRAM), which a
     tiny torture heap exhausts fast; cap the live large set so the
     schedule exercises LOS churn rather than OOMing at once. *)
  let larges = ref [] in
  let push_large id =
    larges := id :: !larges;
    match !larges with
    | _ :: _ :: oldest :: _ ->
        Vm.kill vm oldest;
        larges := List.filteri (fun i _ -> i < 2) !larges
    | _ -> ()
  in
  let allocs = ref 0 in
  let injections = ref 0 in
  let wl_toggles = ref 0 in
  let hyb_toggles = ref 0 in
  let inc_toggles = ref 0 in
  let churns = ref 0 in
  let explicit_verifies = ref 0 in
  let steps_run = ref 0 in
  let completed = ref true in
  let violation = ref None in
  let verify_now () =
    incr explicit_verifies;
    Verify.raise_on_errors (Vm.verify vm)
  in
  (* Tenant churn (device seeds): attach a short-lived neighbour VM to
     the shared node, run it through allocation, deaths, a full
     collection and the verifier, then detach it — the fleet pool's
     place/evict cycle interleaved with the main schedule.  Placement
     failure and a churn-VM OOM are legitimate on a crowded node; either
     way the neighbour is detached and the *surviving* main VM must
     still verify. *)
  let churn (node : Holes.Memory_backend.node) =
    incr churns;
    match Vm.create ~cfg ~node ~min_heap_bytes:churn_heap_bytes () with
    | exception Vm.Out_of_memory -> ()
    | vm2 ->
        Fun.protect
          ~finally:(fun () ->
            match Vm.device_state vm2 with
            | Some st -> Holes.Memory_backend.detach st
            | None -> ())
          (fun () ->
            (try
               let ids =
                 Array.init 24 (fun _ -> Vm.alloc vm2 ~size:(16 + Xrng.int rng 480) ())
               in
               Array.iteri (fun i id -> if i land 1 = 0 then Vm.kill vm2 id) ids;
               Vm.collect vm2 ~full:true
             with Vm.Out_of_memory -> ());
            Verify.raise_on_errors (Vm.verify vm2));
        verify_now ()
  in
  (* Out_of_memory ends the schedule (legitimately: the heap is tiny);
     Verify.Violation and anything else unexpected is a finding. *)
  (try
     let i = ref 0 in
     while !i < steps do
       incr i;
       incr steps_run;
       let r0 = Xrng.int rng 100 in
       if Sys.getenv_opt "HOLES_TORTURE_DEBUG" <> None then
         Printf.eprintf "step %d r=%d nlive=%d\n%!" !i r0 !nlive;
       (match r0 with
       | r when r < 45 ->
           let size =
             match Xrng.int rng 100 with
             | s when s < 70 -> 16 + Xrng.int rng 288
             | s when s < 96 -> Xrng.range rng 320 4096
             | _ -> Xrng.range rng 8300 20000
           in
           let pinned = Xrng.int rng 20 = 0 in
           incr allocs;
           let id = Vm.alloc vm ~pinned ~size () in
           if size > Holes_heap.Units.los_threshold then push_large id else push id
       | r when r < 75 -> if !nlive > 0 then Vm.kill vm (remove (Xrng.int rng !nlive))
       | r when r < 85 ->
           if !nlive >= 2 then
             let src = live.(Xrng.int rng !nlive) in
             let dst = live.(Xrng.int rng !nlive) in
             Vm.write_ref vm ~src ~dst
       | r when r < 91 ->
           if static then begin
             if !nlive > 0 then begin
               incr injections;
               Vm.dynamic_failure vm ~id:live.(Xrng.int rng !nlive)
             end
           end
           else begin
             (* device seeds split the injection slot three ways:
                tenant churn, toggling the wear-leveling policy, and
                toggling the DRAM/PCM tiering policy mid-run.  The
                wear-level toggle stresses the failure walk through a
                leveler installed mid-run and the gap-line
                evacuate/re-reserve path; the hybrid
                toggle stresses demote-all writeback (tiering off
                flushes every DRAM resident home through the charged
                path) and content-store flushes, with the paranoid
                verifier checking the residency map after each step. *)
             match Xrng.int rng 3 with
             | 0 -> churn (Option.get node)
             | 1 ->
                 incr wl_toggles;
                 let psi = 24 + Xrng.int rng 96 in
                 let next =
                   match Xrng.int rng 4 with
                   | 0 -> None
                   | 1 -> Some (Holes_pcm.Wear_level.Start_gap { psi })
                   | 2 -> Some (Holes_pcm.Wear_level.Random_remap { psi })
                   | _ -> Some (Holes_pcm.Wear_level.Decoder_swap { psi })
                 in
                 Vm.set_wear_level vm next
             | _ ->
                 incr hyb_toggles;
                 let epoch = 256 + Xrng.int rng 512 in
                 let ways = [| 2; 4; 8 |].(Xrng.int rng 3) in
                 let next =
                   match Xrng.int rng 4 with
                   | 0 -> Holes_pcm.Hybrid.none
                   | 1 -> { Holes_pcm.Hybrid.migrate_epoch = Some epoch; caram_ways = None }
                   | 2 -> { Holes_pcm.Hybrid.migrate_epoch = None; caram_ways = Some ways }
                   | _ ->
                       { Holes_pcm.Hybrid.migrate_epoch = Some epoch; caram_ways = Some ways }
                 in
                 Vm.set_hybrid vm next
           end
       | r when r < 96 -> Vm.collect vm ~full:(Xrng.int rng 4 = 0)
       | r when r < 98 ->
           (* toggle incremental collection mid-run: switching to 0
              finishes any in-flight cycle synchronously, switching on
              lets the next allocation pulse start one.  The VM runs
              with [verify = true], so the verifier checks the SATB
              invariant after every subsequent increment. *)
           incr inc_toggles;
           let budget = if Xrng.int rng 2 = 0 then 0 else 32 + Xrng.int rng 224 in
           Vm.set_gc_slice vm budget
       | _ -> verify_now ());
       if Sys.getenv_opt "HOLES_TORTURE_DEBUG" <> None then verify_now ();
       if !i mod 128 = 0 then verify_now ()
     done;
     verify_now ()
   with
  | Vm.Out_of_memory -> (
      if Sys.getenv_opt "HOLES_DEBUG_OOM" <> None then
        Printf.eprintf "OOM backtrace:\n%s\n%!" (Printexc.get_backtrace ());
      completed := false;
      (* the heap must still be consistent after an aborted request *)
      try verify_now ()
      with Verify.Violation msg -> violation := Some ("after OOM: " ^ msg))
  | Verify.Violation msg ->
      if Sys.getenv_opt "HOLES_TORTURE_DEBUG" <> None then
        Printf.eprintf "violation backtrace:\n%s\n%!" (Printexc.get_backtrace ());
      violation := Some msg
  | exn -> violation := Some ("unexpected exception: " ^ Printexc.to_string exn));
  Vm.sync_backend_stats vm;
  let m = Vm.metrics vm in
  {
    seed;
    config = Cfg.name cfg;
    steps_run = !steps_run;
    allocs = !allocs;
    injections = !injections;
    wl_toggles = !wl_toggles;
    hyb_toggles = !hyb_toggles;
    inc_toggles = !inc_toggles;
    churns = !churns;
    gcs = m.Metrics.full_gcs + m.Metrics.nursery_gcs;
    explicit_verifies = !explicit_verifies;
    verify_passes = m.Metrics.verify_passes;
    verify_checks = m.Metrics.verify_checks;
    completed = !completed;
    violation = !violation;
  }
