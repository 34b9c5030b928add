(* Hot-path microbenchmarks with a tracked JSON baseline.

   Times the kernels that dominate trial throughput (hole search, small
   allocation under failures, full collection — stop-the-world and
   incremental — line retirement, device writes, in line order and at
   random, and the hybrid tier's charged line store) plus
   the wall-clock of the reduced `figures-quick` grid, and writes the
   results as `BENCH_hotpath.json`.  The committed copy of that file is
   the perf baseline: CI reruns the kernels and fails when any of them
   regresses by more than the tolerance.

   Usage:
     microbench.exe [--out FILE]        run kernels + grid, write JSON
                                        (default BENCH_hotpath.json)
     microbench.exe --no-grid           skip the grid wall-clock
     microbench.exe --before FILE       embed FILE's ns_per_op values as
                                        before_ns (before/after record)
     microbench.exe --check FILE        rerun kernels and compare against
                                        FILE's ns_per_op; exit 1 when any
                                        kernel is slower by more than
                                        --tolerance (default 0.25)
     microbench.exe --check FILE --retry N
                                        re-measure regressed kernels up to N
                                        extra times before failing (shared CI
                                        runners are noisy; a real regression
                                        reproduces, a scheduling hiccup does
                                        not)
     microbench.exe --check FILE --markdown FILE
                                        also write the before/after table as
                                        a markdown fragment (for CI job
                                        summaries)

   All numbers are host wall-clock (best of several repetitions), unlike
   the virtual cost-model times in the figures: this file measures the
   simulator itself, not the simulated machine. *)

let reps = 5

(* A kernel: the operations one timed run performs, and [prepare],
   which builds a run's input outside the timed region and returns the
   body to time. *)
type kernel = { ops : int; prepare : unit -> unit -> unit }

(* a kernel with no per-run input: every run times [body] whole *)
let whole (ops : int) (body : unit -> unit) : kernel = { ops; prepare = (fun () -> body) }

(* best-of-[reps] wall-clock of the kernel's body, in ns per operation *)
let time_ns_per_op (k : kernel) : float =
  (k.prepare ()) ();
  (* warmup: fill caches, trigger any lazy setup *)
  let best = ref infinity in
  for _ = 1 to reps do
    let body = k.prepare () in
    let t0 = Unix.gettimeofday () in
    body ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best /. float_of_int k.ops *. 1e9

(* ------------------------------------------------------------------ *)
(* Kernels                                                             *)
(* ------------------------------------------------------------------ *)

(* hole-search: walk every hole of fragmented 64 B-line blocks — the
   line-map scan underneath every bump-cursor refill.  Four occupancy
   regimes (heavy scatter, moderate scatter, clustered survivors, nearly
   empty) crossed with small (2-line) and medium (8-line) requests, so
   the kernel covers both the overhead-bound short searches of a churning
   nursery and the long skips over dense blocks where the scan itself
   dominates. *)
let hole_search_kernel () : kernel =
  let line_size = 64 in
  let lines_per_page = Holes_pcm.Geometry.lines_per_page in
  let make_block fill =
    let rng = Holes_stdx.Xrng.of_seed 42 in
    let bitmaps =
      Array.init Holes_heap.Units.pages_per_block (fun _ ->
          let b = Holes_stdx.Bitset.create lines_per_page in
          for i = 0 to lines_per_page - 1 do
            if Holes_stdx.Xrng.float rng < 0.08 then Holes_stdx.Bitset.set b i
          done;
          b)
    in
    let blk =
      Holes_heap.Block.create ~tbl:(Holes_heap.Block.table_create ()) ~index:0 ~base:0 ~line_size
        ~pages:(Array.init Holes_heap.Units.pages_per_block Fun.id)
        ~page_bitmap:(fun id -> bitmaps.(id))
    in
    let nlines = blk.Holes_heap.Block.nlines in
    for l = 0 to nlines - 1 do
      if (not (Holes_heap.Block.is_failed_line blk l)) && fill rng l then
        Holes_heap.Block.add_object_lines blk ~addr:(l * line_size) ~size:line_size
    done;
    blk
  in
  let blocks =
    [|
      (* heavy scatter: short-lived small objects everywhere *)
      make_block (fun rng _ -> Holes_stdx.Xrng.float rng < 0.45);
      (* moderate scatter *)
      make_block (fun rng _ -> Holes_stdx.Xrng.float rng < 0.20);
      (* clustered survivors: 16-line live stripes *)
      make_block (fun rng l -> ignore (Holes_stdx.Xrng.float rng); l land 31 < 16);
      (* nearly empty: holes bounded only by failed lines *)
      make_block (fun rng _ -> Holes_stdx.Xrng.float rng < 0.02);
    |]
  in
  let requests = [| 2 * line_size; 8 * line_size |] in
  let walks = 400 in
  let walk blk min_bytes =
    let from = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let enc = Holes_heap.Block.find_hole_enc blk ~from_line:!from ~min_bytes in
      if enc >= 0 then from := enc land 0x3FFFFFFF else continue_ := false
    done
  in
  let nlines = blocks.(0).Holes_heap.Block.nlines in
  whole (walks * nlines * Array.length blocks * Array.length requests) (fun () ->
      for _ = 1 to walks do
        Array.iter (fun blk -> Array.iter (fun mb -> walk blk mb) requests) blocks
      done)

(* alloc: the end-to-end small-allocation path over a 25%-failed heap —
   bump fast path, hole skips, recycled-block search, collections *)
let alloc_kernel () : kernel =
  let cfg =
    {
      Holes.Config.default with
      Holes.Config.failure_rate = 0.25;
      failure_dist = Holes.Config.Uniform;
    }
  in
  let iters = 4000 in
  whole iters (fun () ->
      let vm = Holes.Vm.create ~cfg ~min_heap_bytes:(1 lsl 20) () in
      for _ = 1 to iters do
        let id = Holes.Vm.alloc vm ~size:48 () in
        Holes.Vm.kill vm id
      done)

(* The collection kernels time [heaps_per_run] collections, each of its
   own heap, built before the timer starts: a run times only the
   collections, and one run is long enough for the clock. *)
let heaps_per_run = 8

let collections (make : unit -> 'heap) (collect : 'heap -> unit) : kernel =
  {
    ops = heaps_per_run;
    prepare =
      (fun () ->
        let heaps = Array.init heaps_per_run (fun _ -> make ()) in
        fun () -> Array.iter collect heaps);
  }

(* 3000 small objects, every other one dead *)
let half_dead_heap (cfg : Holes.Config.t) () : Holes.Vm.t =
  let vm = Holes.Vm.create ~cfg ~min_heap_bytes:(1 lsl 20) () in
  let ids = Array.init 3000 (fun _ -> Holes.Vm.alloc vm ~size:64 ()) in
  Array.iteri (fun i id -> if i mod 2 = 0 then Holes.Vm.kill vm id) ids;
  vm

(* full-gc: one stop-the-world collection of the half-dead heap —
   snapshot, mark, line-map bookkeeping and sweep *)
let full_gc_kernel () : kernel =
  collections (half_dead_heap Holes.Config.default) (fun vm -> Holes.Vm.collect vm ~full:true)

(* gc-pause: the full_gc heap collected incrementally — snapshot,
   budgeted mark slices, then sweep and defrag slices driven to
   completion.  Times the whole incremental cycle: a regression in the
   slice machinery (snapshot walking, deferred line retirement,
   per-slice rebuild accounting) lands here, while full_gc above keeps
   the stop-the-world path honest. *)
let gc_pause_kernel () : kernel =
  collections
    (half_dead_heap { Holes.Config.default with Holes.Config.gc_slice = 64 })
    (fun vm -> Holes.Vm.collect vm ~full:true)

(* retire: one stop-the-world line retirement (paper Sec. 4.2) — a
   dynamic failure under a live object, which runs a full evacuating
   collection and then retires the line.  The heap's object table is
   sparse: 20000 objects allocated and all but one in 40 collected,
   then 300 more allocated, so the slot high-water mark is 25 times the
   ~800 occupied slots, as after the churn of an aging run. *)
let retire_kernel () : kernel =
  (* the heap and the live object whose line fails *)
  let sparse_heap () =
    let vm = Holes.Vm.create ~cfg:Holes.Config.default ~min_heap_bytes:(2 lsl 20) () in
    let ids = Array.init 20_000 (fun i -> Holes.Vm.alloc vm ~size:(16 + (i mod 48)) ()) in
    Array.iteri (fun i id -> if i mod 40 <> 0 then Holes.Vm.kill vm id) ids;
    Holes.Vm.collect vm ~full:true;
    for i = 1 to 300 do
      ignore (Holes.Vm.alloc vm ~size:(16 + (i mod 600)) ())
    done;
    (vm, ids.(0))
  in
  collections sparse_heap (fun (vm, victim) -> Holes.Vm.dynamic_failure vm ~id:victim)

(* device-write: the payload-store write path (no wear-outs: endurance is
   the production 1e8, so this isolates the arena from failure handling) *)
let device_write_kernel () : kernel =
  let config =
    { Holes_pcm.Device.default_config with Holes_pcm.Device.pages = 64; wear = Holes_pcm.Wear.default_params }
  in
  let dev = Holes_pcm.Device.create ~config ~seed:7 () in
  let payload = Bytes.make Holes_pcm.Geometry.line_bytes 'w' in
  let nlines = Holes_pcm.Device.nlines dev in
  let passes = 8 in
  whole (passes * nlines) (fun () ->
      for _ = 1 to passes do
        for l = 0 to nlines - 1 do
          ignore (Holes_pcm.Device.write dev l payload)
        done
      done)

(* storm: uniformly random line stores over a 750-page device (the
   fleet's device size) at production endurance, the access pattern of
   a fleet failure storm.  device_write sweeps 64 pages in line order,
   which fits in cache; here each store lands on a line whose wear
   state and payload are most likely not cached, so the kernel sees how
   the device lays out its per-line state.  The line indices are drawn
   once, outside the timed region. *)
let storm_kernel () : kernel =
  let config =
    { Holes_pcm.Device.default_config with Holes_pcm.Device.pages = 750; wear = Holes_pcm.Wear.default_params }
  in
  let dev = Holes_pcm.Device.create ~config ~seed:7 () in
  let payload = Bytes.make Holes_pcm.Geometry.line_bytes 's' in
  let rng = Holes_stdx.Xrng.of_seed 11 in
  let nlines = Holes_pcm.Device.nlines dev in
  let lines = Array.init (1 lsl 18) (fun _ -> Holes_stdx.Xrng.int rng nlines) in
  whole (Array.length lines) (fun () ->
      Array.iter (fun l -> ignore (Holes_pcm.Device.write dev l payload)) lines)

(* translate: Device.physical_of_logical with both mechanisms live — a
   start-gap leveling permutation over the clustering maps — after
   enough write churn that the permutation has rotated and the
   clustering maps hold recorded failures.  This is the per-access cost
   translation adds on top of the arena store. *)
let translate_kernel () : kernel =
  let config =
    {
      Holes_pcm.Device.default_config with
      Holes_pcm.Device.pages = 64;
      wear = { Holes_pcm.Wear.fast_params with Holes_pcm.Wear.mean_endurance = 400.0 };
      wear_level = Some (Holes_pcm.Wear_level.Start_gap { psi = 16 });
    }
  in
  let dev = Holes_pcm.Device.create ~config ~seed:7 () in
  let payload = Bytes.make Holes_pcm.Geometry.line_bytes 't' in
  let nlines = Holes_pcm.Device.nlines dev in
  (* boot failures populate the clustering maps (and freeze their pairs
     in the leveler); churn then rotates the gap through the rest *)
  Holes_pcm.Device.preinstall_failures dev
    (Holes_pcm.Failure_map.uniform (Holes_stdx.Xrng.of_seed 13) ~nlines ~rate:0.10);
  for _ = 1 to 4 do
    for l = 0 to nlines - 1 do
      if Holes_pcm.Device.line_usable dev l then ignore (Holes_pcm.Device.write dev l payload)
    done
  done;
  let passes = 64 in
  whole (passes * nlines) (fun () ->
      let acc = ref 0 in
      for _ = 1 to passes do
        for l = 0 to nlines - 1 do
          acc := !acc + Holes_pcm.Device.physical_of_logical dev l
        done
      done;
      ignore !acc)

(* migrate: the DRAM/PCM tiering hot path end to end — per-page heat
   tracking on every charged line write, promotion (frame grab, Vmm
   retarget, charged page copy), the DRAM-resident fast path, epoch
   decay and cold-page demotion write-backs.  A tiny epoch and a small
   frame pool force the promote/demote cycle to turn over constantly,
   so the kernel times the tiering machinery rather than a settled
   resident set.  device_write and translate above stay tier-free, so
   they keep isolating the arena and pipeline costs. *)
let migrate_kernel () : kernel =
  let d = Holes.Config.default_device in
  let cfg =
    {
      Holes.Config.default with
      Holes.Config.backend = Holes.Config.Device { d with Holes.Config.dram_pages = 8 };
      hybrid = { Holes_pcm.Hybrid.migrate_epoch = Some 256; caram_ways = None };
    }
  in
  let iters = 4000 in
  whole iters (fun () ->
      let vm = Holes.Vm.create ~cfg ~min_heap_bytes:(1 lsl 20) () in
      for _ = 1 to iters do
        let id = Holes.Vm.alloc vm ~size:48 () in
        Holes.Vm.kill vm id
      done)

(* dedup: the content-store stage in front of the cells — FNV
   fingerprint, set lookup, dedup refcount bump, pattern compression,
   and install into the set's lowest-index unreferenced way (which may
   overwrite a valid entry while a higher way is still empty) — on a
   write mix of shared, all-same-byte and unique payloads.
   device_write above stays content-blind, so the pair separates the
   store's cost from the arena's. *)
let dedup_kernel () : kernel =
  let config =
    {
      Holes_pcm.Device.default_config with
      Holes_pcm.Device.pages = 64;
      wear = Holes_pcm.Wear.default_params;
      caram = Some 8;
    }
  in
  let dev = Holes_pcm.Device.create ~config ~seed:7 () in
  let line_bytes = Holes_pcm.Geometry.line_bytes in
  let nlines = Holes_pcm.Device.nlines dev in
  let shared =
    Array.init 12 (fun k ->
        Bytes.init line_bytes (fun i -> Char.chr (((k * 37) + (i * 11)) land 0xff)))
  in
  let pattern = Bytes.make line_bytes '\xAB' in
  let unique = Bytes.make line_bytes 'u' in
  let passes = 8 in
  whole (passes * nlines) (fun () ->
      for p = 1 to passes do
        for l = 0 to nlines - 1 do
          let payload =
            match l land 3 with
            | 0 | 1 -> shared.(l mod 12)
            | 2 -> pattern
            | _ ->
                Bytes.set_int32_le unique 0 (Int32.of_int ((p * nlines) + l));
                unique
          in
          ignore (Holes_pcm.Device.write dev l payload)
        done
      done)

(* store: one charged line store, [Memory_backend.device_write], at the
   hybrid-aging benchmark's node configuration (hot-page migration with
   a 512-write epoch and an 8-way content store, 32 DRAM frames,
   start-gap leveling with psi 64) at production endurance, so nothing
   wears out: the occupancy sample, the page-table lookup, the content
   synthesizer, then either the tier's dirty-line copy or the content
   store's probe, the cell write and the tier's heat count.  Pages and
   lines are drawn uniformly over a 128-page heap before the timer
   starts, so a page takes about four of an epoch's stores and the
   tier keeps promoting and demoting. *)
let store_kernel () : kernel =
  let d = Holes.Config.default_device in
  let cfg =
    {
      Holes.Config.default with
      Holes.Config.backend =
        Holes.Config.Device { d with Holes.Config.wear = Holes_pcm.Wear.default_params; dram_pages = 32 };
      wear_level = Some (Holes_pcm.Wear_level.Start_gap { psi = 64 });
      hybrid = { Holes_pcm.Hybrid.migrate_epoch = Some 512; caram_ways = Some 8 };
    }
  in
  let vm = Holes.Vm.create ~cfg ~min_heap_bytes:(128 * Holes_pcm.Geometry.page_bytes) () in
  let st = Option.get (Holes.Vm.device_state vm) in
  let rng = Holes_stdx.Xrng.of_seed 17 in
  let n = 1 lsl 17 in
  let pages = Array.init n (fun _ -> Holes_stdx.Xrng.int rng 128) in
  let lines = Array.init n (fun _ -> Holes_stdx.Xrng.int rng Holes_pcm.Geometry.lines_per_page) in
  whole n (fun () ->
      for i = 0 to n - 1 do
        Holes.Memory_backend.device_write st ~stock_page:pages.(i) ~line:lines.(i)
      done)

(* fleet: one small device shard end to end — open-loop Poisson
   arrivals through the virtual-clock event queue, two tenant VMs
   attached to the shared node, request service and the report merge.
   Wall-clocks the serving simulator itself (DESIGN.md §12); the
   simulated latencies inside it are virtual and deterministic. *)
let fleet_kernel () : kernel =
  let p =
    {
      Holes_fleet.Sim.default with
      Holes_fleet.Sim.tenants = 2;
      devices = 1;
      arrival = Holes_fleet.Arrivals.Poisson { rate = 400.0 };
      duration_ms = 150.0;
    }
  in
  whole 1 (fun () -> ignore (Holes_fleet.Sim.run ~jobs:1 p))

let kernels : (string * (unit -> kernel)) list =
  [
    ("hole_search", hole_search_kernel);
    ("alloc_small", alloc_kernel);
    ("full_gc", full_gc_kernel);
    ("gc_pause", gc_pause_kernel);
    ("retire", retire_kernel);
    ("device_write", device_write_kernel);
    ("storm", storm_kernel);
    ("translate", translate_kernel);
    ("migrate", migrate_kernel);
    ("dedup", dedup_kernel);
    ("store", store_kernel);
    ("fleet", fleet_kernel);
  ]

let run_kernels () : (string * float) list =
  List.map
    (fun (name, mk) ->
      let ns = time_ns_per_op (mk ()) in
      Printf.printf "%-14s %12.1f ns/op\n%!" name ns;
      (name, ns))
    kernels

(* the fixed reduced grid (`figures-quick`), timed cold at -j 1 *)
let grid_wall_s () : float =
  Holes_exp.Runner.clear_cache ();
  let params = { Holes_exp.Runner.scale = 0.1; seeds = 2; jobs = 1 } in
  let t0 = Unix.gettimeofday () in
  ignore (Holes_exp.Figures.fig4 ~params ());
  ignore (Holes_exp.Figures.headline ~params ());
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "%-14s %12.2f s (figures-quick grid, -j 1, cold cache)\n%!" "grid" dt;
  dt

(* ------------------------------------------------------------------ *)
(* The JSON snapshot (hand-rolled, like lib/engine/sink.ml)            *)
(* ------------------------------------------------------------------ *)

(* Scan [line] for `"key": <float>`; the emitter below writes one kernel
   per line, so line-oriented scanning is a complete parser for it. *)
let find_float ~(key : string) (line : string) : float option =
  let pat = Printf.sprintf "\"%s\":" key in
  match
    let plen = String.length pat and llen = String.length line in
    let rec at i =
      if i + plen > llen then None
      else if String.sub line i plen = pat then Some (i + plen)
      else at (i + 1)
    in
    at 0
  with
  | None -> None
  | Some start ->
      let stop = ref start in
      let llen = String.length line in
      while
        !stop < llen
        && (match line.[!stop] with '0' .. '9' | '.' | '-' | 'e' | '+' | ' ' -> true | _ -> false)
      do
        incr stop
      done;
      float_of_string_opt (String.trim (String.sub line start (!stop - start)))

let load_snapshot (path : string) : (string * (float * float option)) list =
  let ic = open_in path in
  let entries = ref [] in
  (try
     while true do
       let line = input_line ic in
       List.iter
         (fun (name, _) ->
           let pat = Printf.sprintf "\"%s\"" name in
           let has =
             let plen = String.length pat and llen = String.length line in
             let rec at i =
               i + plen <= llen && (String.sub line i plen = pat || at (i + 1))
             in
             at 0
           in
           if has then
             match find_float ~key:"ns_per_op" line with
             | Some ns -> entries := (name, (ns, find_float ~key:"before_ns" line)) :: !entries
             | None -> ())
         kernels
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !entries

let write_snapshot ~(path : string) ~(before : (string * float) list)
    ~(results : (string * float) list) ~(grid_s : float option)
    ~(grid_before_s : float option) : unit =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"schema\": \"holes-microbench/1\",\n";
  out "  \"note\": \"host wall-clock ns/op, best of %d; regenerate with `make bench`\",\n" reps;
  out "  \"kernels\": {\n";
  let n = List.length results in
  List.iteri
    (fun i (name, ns) ->
      let before_part =
        match List.assoc_opt name before with
        | Some b when b > 0.0 ->
            Printf.sprintf ", \"before_ns\": %.1f, \"speedup\": %.2f" b (b /. ns)
        | _ -> ""
      in
      out "    \"%s\": {\"ns_per_op\": %.1f%s}%s\n" name ns before_part
        (if i < n - 1 then "," else ""))
    results;
  out "  }%s\n" (if grid_s <> None then "," else "");
  (match grid_s with
  | Some s ->
      let before_part =
        match grid_before_s with
        | Some b when b > 0.0 ->
            Printf.sprintf ", \"before_wall_s\": %.2f, \"speedup\": %.2f" b (b /. s)
        | _ -> ""
      in
      out "  \"figures_quick\": {\"wall_s\": %.2f%s}\n" s before_part
  | None -> ());
  out "}\n";
  close_out oc;
  Printf.printf "(wrote %s)\n%!" path

let write_markdown ~(path : string) ~(tolerance : float)
    ~(rows : (string * float option * float * int) list) : unit =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "### Hot-path kernels vs committed baseline (tolerance %.0f%%)\n\n" (tolerance *. 100.0);
  out "| kernel | baseline ns/op | fresh ns/op | ratio | attempts | verdict |\n";
  out "|---|---:|---:|---:|---:|---|\n";
  List.iter
    (fun (name, base, ns, attempts) ->
      match base with
      | None -> out "| `%s` | — | %.1f | — | %d | no baseline |\n" name ns attempts
      | Some b ->
          let ratio = ns /. b in
          out "| `%s` | %.1f | %.1f | %.2fx | %d | %s |\n" name b ns ratio attempts
            (if ratio > 1.0 +. tolerance then "**REGRESSED**" else "ok"))
    rows;
  close_out oc

let check ~(path : string) ~(tolerance : float) ~(retries : int)
    ~(markdown : string option) : unit =
  let snapshot = load_snapshot path in
  if snapshot = [] then begin
    Printf.eprintf "no kernel entries found in %s\n" path;
    exit 2
  end;
  let fresh = run_kernels () in
  (* (name, baseline, best observed ns, measurement attempts) *)
  let rows =
    ref
      (List.map
         (fun (name, ns) ->
           (name, Option.map fst (List.assoc_opt name snapshot), ns, 1))
         fresh)
  in
  let regressed () =
    List.filter_map
      (fun (name, base, ns, _) ->
        match base with
        | Some b when ns /. b > 1.0 +. tolerance -> Some name
        | _ -> None)
      !rows
  in
  (* Re-measure only the regressed kernels: a genuine slowdown reproduces,
     a noisy-neighbour blip on a shared runner does not.  Keep the best
     time seen — the floor is the honest estimate of kernel cost. *)
  let attempt = ref 0 in
  while regressed () <> [] && !attempt < retries do
    incr attempt;
    let names = regressed () in
    Printf.printf "retry %d/%d for noisy kernels: %s\n%!" !attempt retries
      (String.concat ", " names);
    List.iter
      (fun kname ->
        let _, mk = List.find (fun (n, _) -> n = kname) kernels in
        let ns = time_ns_per_op (mk ()) in
        Printf.printf "%-14s %12.1f ns/op (retry)\n%!" kname ns;
        rows :=
          List.map
            (fun (n, base, best, tries) ->
              if n = kname then (n, base, Float.min best ns, tries + 1)
              else (n, base, best, tries))
            !rows)
      names
  done;
  List.iter
    (fun (name, base, ns, _) ->
      match base with
      | None -> Printf.printf "%-14s (no baseline entry, skipped)\n" name
      | Some b ->
          let ratio = ns /. b in
          Printf.printf "%-14s %10.1f ns vs baseline %10.1f ns (%.2fx) %s\n" name ns b
            ratio
            (if ratio > 1.0 +. tolerance then "REGRESSED" else "ok"))
    !rows;
  (match markdown with
  | Some md -> write_markdown ~path:md ~tolerance ~rows:!rows
  | None -> ());
  if regressed () <> [] then begin
    Printf.eprintf "microbench: kernel regression beyond %.0f%% tolerance\n" (tolerance *. 100.0);
    exit 1
  end

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse (out, before, check_path, tol, grid, retries, md) = function
    | [] -> (out, before, check_path, tol, grid, retries, md)
    | "--out" :: p :: rest -> parse (p, before, check_path, tol, grid, retries, md) rest
    | "--before" :: p :: rest -> parse (out, Some p, check_path, tol, grid, retries, md) rest
    | "--check" :: p :: rest -> parse (out, before, Some p, tol, grid, retries, md) rest
    | "--tolerance" :: v :: rest ->
        parse (out, before, check_path, float_of_string v, grid, retries, md) rest
    | "--retry" :: v :: rest ->
        parse (out, before, check_path, tol, grid, int_of_string v, md) rest
    | "--markdown" :: p :: rest -> parse (out, before, check_path, tol, grid, retries, Some p) rest
    | "--no-grid" :: rest -> parse (out, before, check_path, tol, false, retries, md) rest
    | a :: _ -> failwith (Printf.sprintf "unknown argument %S" a)
  in
  let out, before_path, check_path, tolerance, grid, retries, markdown =
    parse ("BENCH_hotpath.json", None, None, 0.25, true, 0, None) args
  in
  match check_path with
  | Some path -> check ~path ~tolerance ~retries ~markdown
  | None ->
      let before, grid_before =
        match before_path with
        | None -> ([], None)
        | Some p ->
            (* a baseline that itself has before/after fields keeps its
               original "before" numbers: `make bench` refreshes the
               after side without erasing the tracked baseline *)
            let snap = load_snapshot p in
            let grid_b =
              let ic = open_in p in
              let v = ref None and v0 = ref None in
              (try
                 while true do
                   let line = input_line ic in
                   if !v = None then v := find_float ~key:"wall_s" line;
                   if !v0 = None then v0 := find_float ~key:"before_wall_s" line
                 done
               with End_of_file -> ());
              close_in ic;
              if !v0 <> None then !v0 else !v
            in
            (List.map (fun (n, (ns, b)) -> (n, Option.value b ~default:ns)) snap, grid_b)
      in
      let results = run_kernels () in
      let grid_s = if grid then Some (grid_wall_s ()) else None in
      write_snapshot ~path:out ~before ~results ~grid_s ~grid_before_s:grid_before
