(** Drivers reproducing every figure and table of the paper's evaluation
    (Sec. 6).  Each function runs the necessary configurations through
    {!Runner} (memoized) and renders a {!Holes_stdx.Table}; shapes — who
    wins, by what factor, where crossovers fall — are the reproduction
    target (see EXPERIMENTS.md for the paper-vs-measured record).

    Every figure first {!Runner.prefetch}es its *whole* grid, so with
    [params.jobs > 1] all trials of the figure shard across the engine's
    domain pool at once; the per-cell {!Runner.run} calls below then hit
    the memo cache.  Cell values are independent of [jobs]. *)

open Holes_stdx
module Cfg = Holes.Config
module W = Holes_workload

let suite = W.Dacapo.suite
let suite_buggy = W.Dacapo.suite_with_buggy

(* Heap factors swept in heap-size figures (the paper sweeps 1–6× min). *)
let heap_factors = [ 1.33; 1.5; 2.0; 2.5; 3.0; 4.0; 6.0 ]

let base_six = { Cfg.default with Cfg.collector = Cfg.Sticky_immix; line_size = 256 }

let fmt_ratio = function None -> "DNF" | Some r -> Printf.sprintf "%.3f" r

(* per-benchmark normalized time of cfg vs base; None on DNF *)
let ratio ~params ~cfg ~base profile =
  let o = Runner.run ~params ~cfg ~profile () in
  let b = Runner.run ~params ~cfg:base ~profile () in
  match (Runner.time_if_all_completed o, Runner.time_if_all_completed b) with
  | Some t, Some tb when tb > 0.0 -> Some (t /. tb)
  | _ -> None

let geo ~params ~cfg ~base profiles =
  Runner.geomean_normalized ~params ~cfg ~base ~profiles ()

(* run a figure's full grid through the engine before rendering *)
let prefetch ~params ?(profiles = suite) (cfgs : Cfg.t list) : unit =
  Runner.prefetch ~params ~cfgs ~profiles ()

(* ------------------------------------------------------------------ *)

(** Fig. 3: total time of MS, IX, S-MS, S-IX across heap sizes (no
    failures) — motivates Sticky Immix as the baseline. *)
let fig3 ?(params = Runner.quick) () : Table.t =
  let t =
    Table.create ~title:"Fig. 3 — collector comparison, geomean time normalized to S-IX @ 6x"
      ~headers:[ "heap"; "MS"; "IX"; "S-MS"; "S-IX" ] ()
  in
  let base = { base_six with Cfg.heap_factor = 6.0 } in
  let collectors = [ Cfg.Mark_sweep; Cfg.Immix; Cfg.Sticky_ms; Cfg.Sticky_immix ] in
  let cell_cfg coll h = { base_six with Cfg.collector = coll; heap_factor = h } in
  prefetch ~params
    (base :: List.concat_map (fun h -> List.map (fun c -> cell_cfg c h) collectors) heap_factors);
  List.iter
    (fun h ->
      let cell coll = fmt_ratio (geo ~params ~cfg:(cell_cfg coll h) ~base suite) in
      Table.add_row t
        [ Printf.sprintf "%.2fx" h; cell Cfg.Mark_sweep; cell Cfg.Immix; cell Cfg.Sticky_ms;
          cell Cfg.Sticky_immix ])
    heap_factors;
  t

(** Fig. 4: per-benchmark overhead of failure-aware S-IX with two-page
    clustering at 0/10/25/50% failures, 2x heap, normalized to
    unmodified S-IX.  The buggy lusearch is reported but excluded from
    the geomean, as in the paper. *)
let fig4 ?(params = Runner.quick) () : Table.t =
  let t =
    Table.create ~title:"Fig. 4 — S-IX^PCM_2CL overhead vs failure rate (2x heap)"
      ~headers:[ "benchmark"; "0%"; "10%"; "25%"; "50%" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ] ()
  in
  let cfg_at f =
    if f = 0.0 then base_six
    else { base_six with Cfg.failure_rate = f; failure_dist = Cfg.Hw_cluster 2 }
  in
  let rates = [ 0.0; 0.10; 0.25; 0.50 ] in
  prefetch ~params ~profiles:suite_buggy (base_six :: List.map cfg_at rates);
  List.iter
    (fun p ->
      let cells = List.map (fun f -> fmt_ratio (ratio ~params ~cfg:(cfg_at f) ~base:base_six p)) rates in
      let name = p.W.Profile.name in
      let name = if name = "lusearch" then "lusearch (buggy)" else name in
      Table.add_row t (name :: cells))
    suite_buggy;
  let geos = List.map (fun f -> fmt_ratio (geo ~params ~cfg:(cfg_at f) ~base:base_six suite)) rates in
  Table.add_row t ("geomean" :: geos);
  t

(** Fig. 5: the compensation study at 10% failures (no clustering unless
    stated), across heap sizes; normalized to the no-failure baseline at
    6x. *)
let fig5 ?(params = Runner.quick) () : Table.t =
  let t =
    Table.create ~title:"Fig. 5 — memory reduction vs fragmentation (10% failures)"
      ~headers:[ "heap"; "S-IX^PCM (0%)"; "10% NoComp"; "10% Comp"; "10% 2CL Comp" ] ()
  in
  let base = { base_six with Cfg.heap_factor = 6.0 } in
  let cfgs_at h =
    [
      { base_six with Cfg.heap_factor = h };
      { base_six with Cfg.heap_factor = h; failure_rate = 0.10; compensate = false };
      { base_six with Cfg.heap_factor = h; failure_rate = 0.10 };
      { base_six with Cfg.heap_factor = h; failure_rate = 0.10; failure_dist = Cfg.Hw_cluster 2 };
    ]
  in
  prefetch ~params (base :: List.concat_map cfgs_at heap_factors);
  List.iter
    (fun h ->
      let at cfg = fmt_ratio (geo ~params ~cfg ~base suite) in
      match cfgs_at h with
      | [ f0; nocomp; comp; cl2 ] ->
          Table.add_row t [ Printf.sprintf "%.2fx" h; at f0; at nocomp; at comp; at cl2 ]
      | _ -> assert false)
    heap_factors;
  t

(** Fig. 6(a): Immix line size on the failure-free baseline across heap
    sizes. *)
let fig6a ?(params = Runner.quick) () : Table.t =
  let t =
    Table.create ~title:"Fig. 6a — line size effect, no failures (normalized to L256 @ 6x)"
      ~headers:[ "heap"; "S-IX L64"; "S-IX L128"; "S-IX L256" ] ()
  in
  let base = { base_six with Cfg.heap_factor = 6.0 } in
  let cell_cfg l h = { base_six with Cfg.line_size = l; heap_factor = h } in
  prefetch ~params
    (base
    :: List.concat_map (fun h -> List.map (fun l -> cell_cfg l h) [ 64; 128; 256 ]) heap_factors);
  List.iter
    (fun h ->
      let at l = fmt_ratio (geo ~params ~cfg:(cell_cfg l h) ~base suite) in
      Table.add_row t [ Printf.sprintf "%.2fx" h; at 64; at 128; at 256 ])
    heap_factors;
  t

(** Fig. 6(b): the same three line sizes at 10% uniform failures, no
    clustering — false failures penalize large lines. *)
let fig6b ?(params = Runner.quick) () : Table.t =
  let t =
    Table.create ~title:"Fig. 6b — line size effect at 10% failures (normalized to S-IX L256 @ 6x)"
      ~headers:[ "heap"; "S-IX (L256,0%)"; "PCM L64"; "PCM L128"; "PCM L256" ] ()
  in
  let base = { base_six with Cfg.heap_factor = 6.0 } in
  let pcm_cfg l h = { base_six with Cfg.line_size = l; heap_factor = h; failure_rate = 0.10 } in
  prefetch ~params
    (base
    :: List.concat_map
         (fun h ->
           { base_six with Cfg.heap_factor = h }
           :: List.map (fun l -> pcm_cfg l h) [ 64; 128; 256 ])
         heap_factors);
  List.iter
    (fun h ->
      let at l = fmt_ratio (geo ~params ~cfg:(pcm_cfg l h) ~base suite) in
      let f0 = fmt_ratio (geo ~params ~cfg:{ base_six with Cfg.heap_factor = h } ~base suite) in
      Table.add_row t [ Printf.sprintf "%.2fx" h; f0; at 64; at 128; at 256 ])
    heap_factors;
  t

(** Fig. 7: failure-rate sweep at a fixed 2x heap for the three line
    sizes (no clustering): the false-failure crossover. *)
let fig7 ?(params = Runner.quick) () : Table.t =
  let t =
    Table.create ~title:"Fig. 7 — failure sweep at 2x heap (normalized to S-IX L256, 0%)"
      ~headers:[ "failures"; "L64"; "L128"; "L256" ] ()
  in
  let rates = [ 0.0; 0.05; 0.10; 0.15; 0.20; 0.25; 0.30; 0.35; 0.40; 0.45; 0.50 ] in
  let cell_cfg l f = { base_six with Cfg.line_size = l; failure_rate = f } in
  prefetch ~params
    (base_six :: List.concat_map (fun f -> List.map (fun l -> cell_cfg l f) [ 64; 128; 256 ]) rates);
  List.iter
    (fun f ->
      let at l = fmt_ratio (geo ~params ~cfg:(cell_cfg l f) ~base:base_six suite) in
      Table.add_row t [ Printf.sprintf "%.0f%%" (f *. 100.0); at 64; at 128; at 256 ])
    rates;
  t

(** Fig. 8: the failure-clustering limit study — failures arrive in
    aligned 2^N clusters from 64 B to 16 KB. *)
let fig8 ?(params = Runner.quick) () : Table.t =
  let t =
    Table.create ~title:"Fig. 8 — clustered-failure limit study, L256 @ 2x (normalized to S-IX)"
      ~headers:[ "cluster"; "10%"; "25%"; "50%" ] ()
  in
  let granules = [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ] in
  let rates = [ 0.10; 0.25; 0.50 ] in
  let cell_cfg g f = { base_six with Cfg.failure_rate = f; failure_dist = Cfg.Granule g } in
  prefetch ~params
    (base_six :: List.concat_map (fun g -> List.map (fun f -> cell_cfg g f) rates) granules);
  List.iter
    (fun g ->
      let at f = fmt_ratio (geo ~params ~cfg:(cell_cfg g f) ~base:base_six suite) in
      let label =
        let bytes = g * Holes_pcm.Geometry.line_bytes in
        if bytes >= 1024 then Printf.sprintf "%dKB" (bytes / 1024) else Printf.sprintf "%dB" bytes
      in
      Table.add_row t [ label; at 0.10; at 0.25; at 0.50 ])
    granules;
  t

let clustering_configs =
  [ ("none", Cfg.Uniform); ("1CL", Cfg.Hw_cluster 1); ("2CL", Cfg.Hw_cluster 2) ]

(* the fig9 grid (shared by 9a and 9b): clustering × line size × rate *)
let fig9_cfg dist l f =
  if f = 0.0 then { base_six with Cfg.line_size = l }
  else { base_six with Cfg.line_size = l; failure_rate = f; failure_dist = dist }

let fig9_grid () : Cfg.t list =
  base_six
  :: List.concat_map
       (fun (_, dist) ->
         List.concat_map
           (fun l -> List.map (fun f -> fig9_cfg dist l f) [ 0.0; 0.10; 0.25; 0.50 ])
           [ 64; 128; 256 ])
       clustering_configs

(** Fig. 9(a): proposed clustering hardware — performance for line sizes
    × clustering × failure rate. *)
let fig9a ?(params = Runner.quick) () : Table.t =
  let t =
    Table.create ~title:"Fig. 9a — hardware clustering: geomean time (normalized to S-IX)"
      ~headers:[ "config"; "0%"; "10%"; "25%"; "50%" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ] ()
  in
  prefetch ~params (fig9_grid ());
  List.iter
    (fun (cname, dist) ->
      List.iter
        (fun l ->
          let at f = fmt_ratio (geo ~params ~cfg:(fig9_cfg dist l f) ~base:base_six suite) in
          Table.add_row t
            [ Printf.sprintf "%s L%d" cname l; at 0.0; at 0.10; at 0.25; at 0.50 ])
        [ 64; 128; 256 ])
    clustering_configs;
  t

(** Fig. 9(b): demand for perfect pages (borrowed DRAM pages per run,
    mean over benchmarks). *)
let fig9b ?(params = Runner.quick) () : Table.t =
  let t =
    Table.create ~title:"Fig. 9b — borrowed (perfect-page) demand, mean pages per run"
      ~headers:[ "config"; "0%"; "10%"; "25%"; "50%" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ] ()
  in
  prefetch ~params (fig9_grid ());
  List.iter
    (fun (cname, dist) ->
      List.iter
        (fun l ->
          let at f =
            let cfg = fig9_cfg dist l f in
            let vals =
              List.filter_map
                (fun p ->
                  let o = Runner.run ~params ~cfg ~profile:p () in
                  if o.Runner.completed > 0 then Some o.Runner.mean_borrowed else None)
                suite
            in
            match vals with [] -> "DNF" | _ -> Printf.sprintf "%.1f" (Stats.mean vals)
          in
          Table.add_row t
            [ Printf.sprintf "%s L%d" cname l; at 0.0; at 0.10; at 0.25; at 0.50 ])
        [ 64; 128; 256 ])
    clustering_configs;
  t

(** Fig. 10: per-benchmark results for one- and two-page clustering. *)
let fig10 ?(params = Runner.quick) () : Table.t =
  let t =
    Table.create ~title:"Fig. 10 — per-benchmark, 1CL vs 2CL (normalized to S-IX)"
      ~headers:
        [ "benchmark"; "1CL 10%"; "1CL 25%"; "1CL 50%"; "2CL 10%"; "2CL 25%"; "2CL 50%" ]
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      ()
  in
  let cell_cfg pages f =
    { base_six with Cfg.failure_rate = f; failure_dist = Cfg.Hw_cluster pages }
  in
  prefetch ~params
    (base_six
    :: List.concat_map (fun pages -> List.map (cell_cfg pages) [ 0.10; 0.25; 0.50 ]) [ 1; 2 ]);
  let cell pages f p = fmt_ratio (ratio ~params ~cfg:(cell_cfg pages f) ~base:base_six p) in
  List.iter
    (fun p ->
      Table.add_row t
        [ p.W.Profile.name; cell 1 0.10 p; cell 1 0.25 p; cell 1 0.50 p; cell 2 0.10 p;
          cell 2 0.25 p; cell 2 0.50 p ])
    suite;
  t

(** Sec. 4.2 pause table: full-heap collection cost at 2x heap (the
    paper: 7 ms average, 44 ms worst case for hsqldb, 14.7 GCs and
    1817 ms total on average). *)
let pauses ?(params = Runner.quick) () : Table.t =
  let t =
    Table.create ~title:"Sec. 4.2 — full-heap collection cost (S-IX, 2x heap)"
      ~headers:[ "benchmark"; "total ms"; "GCs"; "mean full pause ms"; "max full pause ms" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ] ()
  in
  prefetch ~params [ base_six ];
  let totals = ref [] and gcs = ref [] and pause_means = ref [] in
  List.iter
    (fun p ->
      let o = Runner.run ~params ~cfg:base_six ~profile:p () in
      let total = match o.Runner.time_ms with Some s -> s.Stats.mean | None -> nan in
      let n = o.Runner.mean_full_gcs +. o.Runner.mean_nursery_gcs in
      let mean_pause = Holes_obs.Stats.mean o.Runner.pause_hist /. 1e6 in
      totals := total :: !totals;
      gcs := n :: !gcs;
      if mean_pause > 0.0 then pause_means := mean_pause :: !pause_means;
      Table.add_row t
        [ p.W.Profile.name; Printf.sprintf "%.1f" total; Printf.sprintf "%.1f" n;
          Printf.sprintf "%.2f" mean_pause;
          Printf.sprintf "%.2f" (Holes_obs.Stats.max_value o.Runner.pause_hist /. 1e6) ])
    suite;
  Table.add_row t
    [ "mean"; Printf.sprintf "%.1f" (Stats.mean !totals); Printf.sprintf "%.1f" (Stats.mean !gcs);
      (match !pause_means with [] -> "-" | l -> Printf.sprintf "%.2f" (Stats.mean l)); "-" ];
  t

(** Sec. 8 headline numbers: overhead with and without clustering at 10%
    and 50% failures. *)
let headline ?(params = Runner.quick) () : Table.t =
  let t =
    Table.create ~title:"Headline — geomean overhead vs S-IX (2x heap)"
      ~headers:[ "config"; "10% failures"; "50% failures" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right ] ()
  in
  let cell_cfg dist f = { base_six with Cfg.failure_rate = f; failure_dist = dist } in
  prefetch ~params
    (base_six
    :: List.concat_map
         (fun dist -> List.map (cell_cfg dist) [ 0.10; 0.50 ])
         [ Cfg.Uniform; Cfg.Hw_cluster 2 ]);
  let over dist f =
    match geo ~params ~cfg:(cell_cfg dist f) ~base:base_six suite with
    | None -> "DNF"
    | Some r -> Printf.sprintf "%+.1f%%" ((r -. 1.0) *. 100.0)
  in
  Table.add_row t [ "no clustering (uniform)"; over Cfg.Uniform 0.10; over Cfg.Uniform 0.50 ];
  Table.add_row t [ "2-page clustering"; over (Cfg.Hw_cluster 2) 0.10; over (Cfg.Hw_cluster 2) 0.50 ];
  t

(** Sensitivity of the failure-tolerance overhead to spatial correlation:
    geomean overhead under the {!Holes_pcm.Failure_model.Correlated}
    model as its mean cluster size sweeps 1 (uniform-like) to 16 lines,
    at 10% and 50% failed lines.  The paper's hardware clusters failures
    within a region; this sweep shows how much of the tolerance story
    depends on that clustering actually happening. *)
let sensitivity ?(params = Runner.quick) () : Table.t =
  let t =
    Table.create
      ~title:"Sensitivity — geomean overhead vs mean failure-cluster size (S-IX, 2x heap)"
      ~headers:[ "mean cluster (64 B lines)"; "10% failures"; "50% failures" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right ] ()
  in
  let clusters = [ 1.0; 2.0; 4.0; 8.0; 16.0 ] in
  let cell_cfg mc f =
    {
      base_six with
      Cfg.failure_rate = f;
      failure_model =
        Cfg.Model
          (Holes_pcm.Failure_model.Correlated { mean_cluster = mc; region_lines = 64 });
    }
  in
  prefetch ~params
    (base_six :: List.concat_map (fun mc -> List.map (cell_cfg mc) [ 0.10; 0.50 ]) clusters);
  let over mc f =
    match geo ~params ~cfg:(cell_cfg mc f) ~base:base_six suite with
    | None -> "DNF"
    | Some r -> Printf.sprintf "%+.1f%%" ((r -. 1.0) *. 100.0)
  in
  List.iter
    (fun mc -> Table.add_row t [ Printf.sprintf "%.0f" mc; over mc 0.10; over mc 0.50 ])
    clusters;
  t

(** Design-choice ablations (DESIGN.md §5): the Z-rays alternative to
    perfect-page large objects (paper Sec. 3.3.3), opportunistic nursery
    copying, and on-demand defragmentation. *)
let ablation ?(params = Runner.quick) () : Table.t =
  let t =
    Table.create ~title:"Ablations — geomean time vs S-IX and borrowed pages (2x heap)"
      ~headers:[ "config"; "time"; "borrowed pages" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right ] ()
  in
  let u25 = { base_six with Cfg.failure_rate = 0.25 } in
  let cl50 = { base_six with Cfg.failure_rate = 0.50; failure_dist = Cfg.Hw_cluster 2 } in
  let rows =
    [
      ("LOS, 25% uniform", u25);
      ("Z-rays, 25% uniform", { u25 with Cfg.arraylets = true });
      ("LOS, 50% 2CL", cl50);
      ("Z-rays, 50% 2CL", { cl50 with Cfg.arraylets = true });
      ( "no nursery copy, 25% 2CL",
        { base_six with Cfg.failure_rate = 0.25; failure_dist = Cfg.Hw_cluster 2; nursery_copy = false } );
      ( "no defrag, 25% 2CL",
        { base_six with Cfg.failure_rate = 0.25; failure_dist = Cfg.Hw_cluster 2; defrag = false } );
    ]
  in
  prefetch ~params (base_six :: List.map snd rows);
  let borrowed cfg =
    let vals =
      List.filter_map
        (fun p ->
          let o = Runner.run ~params ~cfg ~profile:p () in
          if o.Runner.completed > 0 then Some o.Runner.mean_borrowed else None)
        suite
    in
    match vals with [] -> "DNF" | _ -> Printf.sprintf "%.1f" (Stats.mean vals)
  in
  List.iter
    (fun (label, cfg) ->
      Table.add_row t [ label; fmt_ratio (geo ~params ~cfg ~base:base_six suite); borrowed cfg ])
    rows;
  t

(** All figures in order. *)
let all ?(params = Runner.quick) () : Table.t list =
  [ fig3 ~params (); fig4 ~params (); fig5 ~params (); fig6a ~params (); fig6b ~params ();
    fig7 ~params (); fig8 ~params (); fig9a ~params (); fig9b ~params (); fig10 ~params ();
    pauses ~params (); headline ~params () ]
