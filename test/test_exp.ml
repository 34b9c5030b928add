(* Tests for the experiment harness: runner memoization, normalization,
   DNF handling, wear-ablation map synthesis, and one end-to-end figure
   smoke test. *)

module R = Holes_exp.Runner
module Cfg = Holes.Config
module Bitset = Holes_stdx.Bitset

let check = Alcotest.check

let tiny = { R.quick with R.scale = 0.05 }

let test_runner_basic () =
  let o = R.run ~params:tiny ~cfg:Cfg.default ~profile:Holes_workload.Dacapo.luindex () in
  check Alcotest.int "all trials ran" 2 o.R.trials;
  check Alcotest.int "all completed" 2 o.R.completed;
  match R.time_if_all_completed o with
  | Some t -> Alcotest.(check bool) "positive time" true (t > 0.0)
  | None -> Alcotest.fail "expected time"

let test_runner_memoizes () =
  let o1 = R.run ~params:tiny ~cfg:Cfg.default ~profile:Holes_workload.Dacapo.luindex () in
  let o2 = R.run ~params:tiny ~cfg:Cfg.default ~profile:Holes_workload.Dacapo.luindex () in
  Alcotest.(check bool) "same cached outcome" true (o1 == o2)

(* Cells that [Config.name] cannot tell apart (rates that print as the
   same whole percent, heap factors that round alike, an ECP setting the
   name omits) each run and memoize their own outcome. *)
let test_runner_memo_keys_cell () =
  let luindex = Holes_workload.Dacapo.luindex in
  let static = { Cfg.default with Cfg.failure_rate = 0.10 } in
  let device ecp_entries =
    let d = Cfg.default_device in
    let wear = { d.Cfg.wear with Holes_pcm.Wear.ecp_entries } in
    { Cfg.default with Cfg.backend = Cfg.Device { d with Cfg.wear } }
  in
  List.iter
    (fun (what, a, b) ->
      check Alcotest.string (what ^ ": one name") (Cfg.name a) (Cfg.name b);
      let oa = R.run ~params:tiny ~cfg:a ~profile:luindex () in
      let ob = R.run ~params:tiny ~cfg:b ~profile:luindex () in
      Alcotest.(check bool) (what ^ ": own outcomes") true (oa.R.cfg = a && ob.R.cfg = b))
    [
      ("failure rate", static, { static with Cfg.failure_rate = 0.104 });
      ("heap factor", Cfg.default, { Cfg.default with Cfg.heap_factor = 2.0004 });
      ("ECP entries", device 6, device 0);
    ]

let test_runner_seed_variation () =
  (* different seeds produce (at least slightly) different times *)
  let o = R.run ~params:{ tiny with R.seeds = 3 } ~cfg:Cfg.default
      ~profile:Holes_workload.Dacapo.bloat () in
  match o.R.time_ms with
  | Some s -> Alcotest.(check bool) "variance across seeds" true (s.Holes_stdx.Stats.max > s.Holes_stdx.Stats.min)
  | None -> Alcotest.fail "expected summary"

let test_geomean_normalized_baseline_is_one () =
  let profiles = [ Holes_workload.Dacapo.luindex; Holes_workload.Dacapo.avrora ] in
  match
    R.geomean_normalized ~params:tiny ~cfg:Cfg.default ~base:Cfg.default ~profiles ()
  with
  | Some g -> check (Alcotest.float 1e-9) "self-normalization = 1" 1.0 g
  | None -> Alcotest.fail "expected geomean"

let test_wear_map_properties () =
  let rng = Holes_stdx.Xrng.of_seed 1 in
  let nlines = 64 * 64 in
  let leveled = Holes_exp.Wear_ablation.wear_map rng ~nlines ~rate:0.2 ~leveled:true in
  let rng2 = Holes_stdx.Xrng.of_seed 1 in
  let unleveled = Holes_exp.Wear_ablation.wear_map rng2 ~nlines ~rate:0.2 ~leveled:false in
  check Alcotest.int "leveled exact count" (nlines / 5) (Bitset.count leveled);
  check Alcotest.int "unleveled exact count" (nlines / 5) (Bitset.count unleveled);
  (* concentrated wear leaves more perfect pages *)
  Alcotest.(check bool) "unleveled concentrates failures" true
    (Holes_pcm.Failure_map.perfect_pages unleveled > Holes_pcm.Failure_map.perfect_pages leveled)

let contains (haystack : string) (needle : string) : bool =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_headline_figure_smoke () =
  (* end-to-end: the headline table renders with plausible content *)
  let t = Holes_exp.Figures.headline ~params:tiny () in
  let s = Holes_stdx.Table.render t in
  Alcotest.(check bool) "mentions clustering" true (contains s "2-page clustering");
  Alcotest.(check bool) "has overhead or DNF cells" true
    (contains s "%" || contains s "DNF")

let test_pauses_figure_smoke () =
  let t = Holes_exp.Figures.pauses ~params:tiny () in
  let s = Holes_stdx.Table.render t in
  Alcotest.(check bool) "row per benchmark" true (contains s "hsqldb" && contains s "xalan")

(* [params.verify] reaches a Runner cell and an aging cell: each
   verifies exactly when the context asks it to, and its sink records
   are the same either way. *)
let test_verify_reaches_cells () =
  let runner_cell verify =
    R.clear_cache ();
    Test_hotpath.with_temp_sink (fun sink ->
        let params = { tiny with R.sink = Some sink; verify } in
        (R.run ~params ~cfg:Cfg.default ~profile:Holes_workload.Dacapo.pmd ())
          .R.mean_verify_passes)
  in
  let aging_cell verify =
    Test_hotpath.with_temp_sink (fun sink ->
        let module W = Holes_exp.Wear_policies in
        match
          W.run_cells ~params:{ R.quick with R.sink = Some sink; verify } ~scale:0.04
            ~max_rounds:2
            ~fields:(fun _ -> [])
            [ W.cell_cfg ~dist:Cfg.Uniform ~policy:None ]
        with
        | [| Ok o |] -> float_of_int o.W.m.Holes.Metrics.verify_passes
        | _ -> Alcotest.fail "the aging cell raised")
  in
  List.iter
    (fun (name, cell) ->
      let on, on_records = cell true in
      let off, off_records = cell false in
      Alcotest.(check bool) (name ^ ": verified") true (on > 0.0);
      check (Alcotest.float 0.0) (name ^ ": not verified") 0.0 off;
      check Alcotest.(list string) (name ^ ": same records") off_records on_records)
    [ ("runner cell", runner_cell); ("aging cell", aging_cell) ]

let suite =
  [
    ("runner basic", `Quick, test_runner_basic);
    ("runner memoizes", `Quick, test_runner_memoizes);
    ("runner memo keys the whole cell", `Quick, test_runner_memo_keys_cell);
    ("runner seed variation", `Quick, test_runner_seed_variation);
    ("geomean self-normalization", `Quick, test_geomean_normalized_baseline_is_one);
    ("wear map properties", `Quick, test_wear_map_properties);
    ("headline figure smoke", `Slow, test_headline_figure_smoke);
    ("pauses figure smoke", `Slow, test_pauses_figure_smoke);
    ("verify reaches runner and aging cells", `Quick, test_verify_reaches_cells);
  ]
