(* The three batch workloads: op tapes replayed against VMs, one VM per
   cell (profile × configuration).

   paper-static   the paper's own experiment: every analysis profile on
                  the static backend under 0%, 25% uniform and 25% 2CL
                  failures (S-IX, L256, heap 2× min).
   device-aging   six profiles, three copies of each, every copy with its
                  own tape on its own device-backend VM (low endurance,
                  10% boot failures, 2CL clustering, start-gap),
                  replayed for a fixed number of rounds, each round ending
                  with the survivors killed and a full collection, so
                  lines wear out and are retired while the heap runs.
   hybrid-aging   the device-aging cells behind a DRAM tier with hot-page
                  migration and the CARAM content store. *)

module Cfg = Holes.Config
module Vm = Holes.Vm
module Metrics = Holes.Metrics
module Cost = Holes.Cost
module Profile = Holes_workload.Profile
module Dacapo = Holes_workload.Dacapo
module Stats = Holes_obs.Stats

type size = Full | Smoke

type t = {
  name : string;
  profiles : Profile.t list;  (** unscaled *)
  scale : float;
  configs : (string * Cfg.t) list;  (** label, configuration (seed overwritten per cell) *)
  rounds : int;  (** tape replays per aging cell; 0 = one replay, no aging *)
}

let base = { Cfg.default with Cfg.collector = Cfg.Sticky_immix; line_size = 256 }

let static_configs : (string * Cfg.t) list =
  [
    ("0%", base);
    ("25%-uniform", { base with Cfg.failure_rate = 0.25; failure_dist = Cfg.Uniform });
    ("25%-2CL", { base with Cfg.failure_rate = 0.25; failure_dist = Cfg.Hw_cluster 2 });
  ]

(* The aging operating point: low mean endurance with wide process
   variation (lognormal sigma 1.0), 10% boot failures, hardware 2-page
   clustering and start-gap leveling, so lines wear out and are retired
   steadily from the first round on.  Narrow variation (the repository's
   wear tables use sigma 0.25) makes lines die together in a cliff whose
   round varies by a factor of two between seeds, and every rate measured
   across it with them.

   Aging cells run a fixed number of rounds rather than to end of life,
   so every seed does the same work: five rounds at scale 0.05 stay short
   of the end of life of every cell.

   Wear-out is still chaotic within a cell: a retirement that hits live
   objects runs a full collection, whose evacuation writes wear further
   lines, so one cell's modeled time per allocation varies by up to 50%
   between seeds, independently of every other cell.  Three copies of
   each profile (own tape, own device) average that out: the workload's
   modeled time per allocation spreads about 4% across seeds, against
   6-8% with one copy.  A fifth round helps the same way, since cells
   that have worn more wear more steadily. *)
let aging_cfg ~(hybrid : Holes_pcm.Hybrid.policy) ~(dram_pages : int) : Cfg.t =
  let d = Cfg.default_device in
  let wear = { d.Cfg.wear with Holes_pcm.Wear.mean_endurance = 12.0; sigma = 1.0 } in
  {
    base with
    Cfg.backend = Cfg.Device { d with Cfg.wear; clustering = Some 2; dram_pages };
    failure_rate = 0.10;
    wear_level = Some (Holes_pcm.Wear_level.Start_gap { psi = 64 });
    hybrid;
  }

let aging_profiles =
  List.concat (List.init 3 (fun _ -> Dacapo.[ pmd; jython; hsqldb; sunflow; xalan; luindex ]))
let smoke_aging_profiles = Dacapo.[ pmd; luindex ]

let paper_static (size : size) : t =
  match size with
  | Full -> { name = "paper-static"; profiles = Dacapo.suite; scale = 0.25; configs = static_configs; rounds = 0 }
  | Smoke ->
      { name = "paper-static"; profiles = Dacapo.[ avrora; luindex; pmd ]; scale = 0.02; configs = static_configs;
        rounds = 0 }

let device_aging (size : size) : t =
  let cfg = aging_cfg ~hybrid:Holes_pcm.Hybrid.none ~dram_pages:Cfg.default_device.Cfg.dram_pages in
  match size with
  | Full -> { name = "device-aging"; profiles = aging_profiles; scale = 0.05; configs = [ ("aging", cfg) ]; rounds = 5 }
  | Smoke ->
      { name = "device-aging"; profiles = smoke_aging_profiles; scale = 0.03; configs = [ ("aging", cfg) ]; rounds = 3 }

let hybrid_aging (size : size) : t =
  let hybrid = { Holes_pcm.Hybrid.migrate_epoch = Some 512; caram_ways = Some 8 } in
  let cfg = aging_cfg ~hybrid ~dram_pages:32 in
  match size with
  | Full -> { name = "hybrid-aging"; profiles = aging_profiles; scale = 0.05; configs = [ ("hybrid", cfg) ]; rounds = 5 }
  | Smoke ->
      { name = "hybrid-aging"; profiles = smoke_aging_profiles; scale = 0.03; configs = [ ("hybrid", cfg) ]; rounds = 3 }

(* ---- inputs ---- *)

let tapes (w : t) ~(seed : int) : Tape.t array =
  Array.of_list
    (List.mapi
       (fun i p -> Tape.generate (Profile.scaled p w.scale) ~seed ~stream:i)
       w.profiles)

(* One cell per (configuration, profile); the VM's own seed (failure map,
   wear streams) derives from the run seed and the cell label, which
   carries the profile's position so that copies of a profile differ. *)
type cell = { label : string; tape : int; cfg : Cfg.t }

let cells (w : t) ~(seed : int) : cell list =
  List.concat_map
    (fun (cname, cfg) ->
      List.mapi
        (fun i (p : Profile.t) ->
          let label = Printf.sprintf "%s#%d/%s" p.Profile.name i cname in
          { label; tape = i; cfg = { cfg with Cfg.seed = Hashtbl.hash (seed, label) land 0x3FFFFFFF } })
        w.profiles)
    w.configs

let create_vm (c : cell) (tape : Tape.t) : Vm.t =
  Vm.create ~cfg:c.cfg ~min_heap_bytes:(Profile.min_heap tape.Tape.profile) ()

(* ---- one cell ---- *)

type outcome = {
  cell : cell;
  rounds : int;  (** completed tape replays *)
  oom : bool;  (** ended in Out_of_memory (end of life on the aging workloads) *)
  run_virt_ns : float;  (** static cells: virtual time of the replay, before the final collect *)
  metrics : Metrics.t;  (** the VM's metrics, device counters synced *)
  total_ns : float;  (** the VM's Cost totals at the end *)
  mutator_ns : float;
  gc_ns : float;
  device : bool;  (** the VM ran on the device backend *)
  host_s : float;  (** timed calls into the VM (replays, kills, collects), wall clock *)
  cpu_s : float;  (** the same calls on the thread's CPU clock *)
  create_virt_ns : float;
  failures : string list;  (** failed checks and unexpected exceptions *)
}

(* Run one cell.  Static cells replay the tape once and collect;
   aging cells replay, kill the survivors and collect, [rounds] times
   (fewer if the device reaches end of life, which ends the cell with
   Out_of_memory).  The heap is verified after the final
   collect (static) or after every completed round (aging) when
   [verify]; verification is never inside the timed region. *)
let run_cell ?(probe : Layers.t option) ~(verify : bool) ~(ids : Tape.ids) (w : t) (tapes : Tape.t array)
    (c : cell) : outcome =
  let tape = tapes.(c.tape) in
  let vm = create_vm c tape in
  let cost = Vm.cost vm in
  let create_virt_ns = Cost.total_ns cost in
  let host_ns = ref 0 and cpu_ns = ref 0 in
  let timed f =
    let t0 = Clock.now_ns () and c0 = Clock.cpu_ns () in
    Fun.protect
      ~finally:(fun () ->
        cpu_ns := !cpu_ns + (Clock.cpu_ns () - c0);
        host_ns := !host_ns + (Clock.now_ns () - t0))
      f
  in
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in
  let check ctx =
    if verify then begin
      (match (Vm.verify vm).Holes.Verify.errors with
      | [] -> ()
      | e :: _ -> fail (Printf.sprintf "%s: verify: %s" ctx e));
      match Vm.check_invariants vm with Ok () -> () | Error e -> fail (Printf.sprintf "%s: invariants: %s" ctx e)
    end
  in
  let replay () =
    match probe with
    | None -> Tape.replay tape vm ~ids
    | Some p -> Tape.replay_traced tape vm ~ids ~probe:p
  in
  let collect () =
    match probe with
    | None -> Vm.collect vm ~full:true
    | Some p -> Layers.timed_call p ~cls:Layers.collect ~cost (fun () -> Vm.collect vm ~full:true)
  in
  let in_span name f = match probe with None -> f () | Some p -> Layers.span p name f in
  let rounds = ref 0 and oom = ref false and run_virt_ns = ref 0.0 in
  (try
     if w.rounds = 0 then begin
       timed (fun () ->
           replay ();
           run_virt_ns := Cost.total_ns cost;
           collect ());
       rounds := 1;
       check "final collect"
     end
     else
       while !rounds < w.rounds do
         in_span (Printf.sprintf "round %d" !rounds) (fun () ->
             timed (fun () ->
                 replay ();
                 Tape.kill_survivors ?probe tape vm ~ids;
                 collect ()));
         incr rounds;
         check (Printf.sprintf "round %d" !rounds)
       done
   with
  | Vm.Out_of_memory -> oom := true
  | e -> fail ("exception: " ^ Printexc.to_string e));
  if !oom && w.rounds = 0 then fail "out of memory on the static backend";
  Vm.sync_backend_stats vm;
  {
    cell = c;
    rounds = !rounds;
    oom = !oom;
    run_virt_ns = !run_virt_ns;
    metrics = Vm.metrics vm;
    total_ns = Cost.total_ns cost;
    mutator_ns = Cost.mutator_ns cost;
    gc_ns = Cost.gc_ns cost;
    device = Vm.device_state vm <> None;
    host_s = float_of_int !host_ns *. 1e-9;
    cpu_s = float_of_int !cpu_ns *. 1e-9;
    create_virt_ns;
    failures = List.rev !failures;
  }

(* ---- derived virtual outputs ---- *)

let sum_int (outs : outcome list) (f : Metrics.t -> int) : int =
  List.fold_left (fun acc o -> acc + f o.metrics) 0 outs

let sum_float (outs : outcome list) (f : outcome -> float) : float =
  List.fold_left (fun acc o -> acc +. f o) 0.0 outs

let allocs (outs : outcome list) : int = sum_int outs (fun m -> m.Metrics.objects_allocated)

(* Every recorded GC pause (full and nursery) across the workload, ns. *)
let pauses (outs : outcome list) : Stats.hist =
  Stats.merged
    (List.concat_map
       (fun o ->
         let m = o.metrics in
         [ m.Metrics.pause_hist; m.Metrics.nursery_pause_hist ])
       outs)

(* Geomean over profiles of t(config) / t(0%) before the final collect:
   the paper's headline overhead for tolerating failed lines.  0 when the
   workload has no such pair. *)
let overhead (outs : outcome list) ~(config : string) : float =
  let run label = List.find_opt (fun o -> o.cell.label = label) outs in
  match
    List.filter_map
      (fun o ->
        match String.split_on_char '/' o.cell.label with
        | [ prof; c ] when c = config -> (
            match run (prof ^ "/0%") with
            | Some b when b.run_virt_ns > 0.0 -> Some (o.run_virt_ns /. b.run_virt_ns)
            | _ -> None)
        | _ -> None)
      outs
  with
  | [] -> 0.0
  | ratios -> Holes_stdx.Stats.geomean ratios

(* Share of charged line writes absorbed before the cells: DRAM-tier
   writes, dedup hits and compressed lines over device + DRAM writes. *)
let absorption (outs : outcome list) : float =
  let absorbed =
    sum_int outs (fun m -> m.Metrics.hyb_dram_writes + m.Metrics.hyb_dedup_hits + m.Metrics.hyb_compressed)
  in
  let charged = sum_int outs (fun m -> m.Metrics.device_writes + m.Metrics.hyb_dram_writes) in
  if charged = 0 then 0.0 else float_of_int absorbed /. float_of_int charged

(* Digest of every virtual output of a pass: identical across passes,
   and across the traced and untraced runs, or something is wrong. *)
let digest (outs : outcome list) : string =
  let b = Buffer.create 4096 in
  List.iter
    (fun o ->
      Printf.bprintf b "%s r%d oom%b %h %h %h %h\n" o.cell.label o.rounds o.oom o.run_virt_ns
        o.total_ns o.mutator_ns o.gc_ns;
      List.iter (fun (k, v) -> Printf.bprintf b "%s=%h " k v) (Metrics.to_fields o.metrics);
      Buffer.add_char b '\n')
    outs;
  Digest.to_hex (Digest.string (Buffer.contents b))
