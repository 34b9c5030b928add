(* Mutation tests for the paranoid heap verifier: a healthy heap passes,
   and each deliberately corrupted invariant is caught — with a usable
   one-line repro command from the torture driver. *)

module Cfg = Holes.Config
module Vm = Holes.Vm
module Verify = Holes.Verify
module Metrics = Holes.Metrics
module Immix = Holes.Immix
module Block = Holes_heap.Block
module Page_stock = Holes_heap.Page_stock
module Bitset = Holes_stdx.Bitset
module Torture = Holes_exp.Torture

let check = Alcotest.check

(* a small failure-ridden heap with a few dozen live objects *)
let make_vm () =
  let cfg = { Cfg.default with Cfg.failure_rate = 0.25; seed = 7 } in
  let vm = Vm.create ~cfg ~min_heap_bytes:(256 * 1024) () in
  for i = 0 to 63 do
    ignore (Vm.alloc vm ~size:(48 + (8 * (i mod 13))) ())
  done;
  Vm.collect vm ~full:true;
  vm

let expect_clean (vm : Vm.t) =
  let r = Vm.verify vm in
  (match r.Verify.errors with
  | [] -> ()
  | e :: _ -> Alcotest.failf "healthy heap flagged: %s" e);
  if r.Verify.checks < 100 then
    Alcotest.failf "suspiciously few checks on a live heap: %d" r.Verify.checks

let expect_violation (vm : Vm.t) (what : string) =
  let r = Vm.verify vm in
  match r.Verify.errors with
  | [] -> Alcotest.failf "verifier missed corrupted %s" what
  | _ -> (
      (* raise_on_errors must turn the report into the exception the
         torture driver catches *)
      try
        Verify.raise_on_errors r;
        Alcotest.fail "raise_on_errors did not raise"
      with Verify.Violation _ -> ())

let test_healthy_heap_passes () =
  let vm = make_vm () in
  expect_clean vm;
  let m = Vm.metrics vm in
  if m.Metrics.verify_checks = 0 then Alcotest.fail "verify_checks not accumulated"

let with_immix (vm : Vm.t) (f : Immix.t -> unit) =
  match vm.Vm.space with
  | Vm.Ix s -> f s
  | Vm.Ms _ -> Alcotest.fail "expected an Immix space"

let test_catches_live_count_corruption () =
  let vm = make_vm () in
  expect_clean vm;
  with_immix vm (fun s ->
      let poked = ref false in
      Immix.iter_blocks s (fun b ->
          if (not !poked) && b.Block.nlines > 0 then begin
            b.Block.live.(0) <- b.Block.live.(0) + 1;
            poked := true
          end);
      if not !poked then Alcotest.fail "no block to corrupt");
  expect_violation vm "per-line live count"

let test_catches_free_count_corruption () =
  let vm = make_vm () in
  expect_clean vm;
  with_immix vm (fun s ->
      let poked = ref false in
      Immix.iter_blocks s (fun b ->
          if not !poked then begin
            Block.set_free_lines b (Block.free_lines b + 1);
            poked := true
          end));
  expect_violation vm "free-line count"

let test_catches_bitmap_divergence () =
  let vm = make_vm () in
  expect_clean vm;
  (* fail a PCM line on a stock page behind the verifier's back: the
     widened block state no longer agrees with the page bitmap *)
  let stock = Vm.stock vm in
  let p = stock.Page_stock.pages.(0) in
  let line = ref (-1) in
  (try
     for l = 0 to Holes_pcm.Geometry.lines_per_page - 1 do
       if not (Bitset.get p.Page_stock.bitmap l) then begin
         line := l;
         raise Exit
       end
     done
   with Exit -> ());
  if !line < 0 then Alcotest.fail "page 0 fully failed?";
  Bitset.set p.Page_stock.bitmap !line;
  expect_violation vm "device-map / line-state agreement"

let test_catches_pool_double_claim () =
  let vm = make_vm () in
  expect_clean vm;
  let stock = Vm.stock vm in
  (match stock.Page_stock.free_imperfect with
  | p :: _ -> stock.Page_stock.free_imperfect <- p :: stock.Page_stock.free_imperfect
  | [] -> (
      match stock.Page_stock.free_perfect with
      | p :: _ -> stock.Page_stock.free_perfect <- p :: stock.Page_stock.free_perfect
      | [] -> Alcotest.fail "no free pages to duplicate"));
  expect_violation vm "page ownership"

let test_catches_accounting_imbalance () =
  let vm = make_vm () in
  expect_clean vm;
  let acct = Page_stock.accounting (Vm.stock vm) in
  acct.Holes_osal.Accounting.total_repaid <- acct.Holes_osal.Accounting.total_repaid + 1;
  expect_violation vm "debit-credit balance"

(* -- torture driver ------------------------------------------------ *)

let test_repro_command_shape () =
  check Alcotest.string "default steps elided" "dune exec bin/torture.exe -- --seeds 42"
    (Torture.repro_command ~seed:42 ~steps:Torture.default_steps);
  check Alcotest.string "explicit steps kept"
    "dune exec bin/torture.exe -- --seeds 7 --steps 50"
    (Torture.repro_command ~seed:7 ~steps:50)

(* static seeds 0..3, plus device seed 7, whose schedule swaps the
   device's wear-leveling policy mid-run *)
let test_torture_seeds_clean () =
  List.iter
    (fun seed ->
      let o = Torture.run_one ~steps:200 ~seed () in
      (match o.Torture.violation with
      | Some v ->
          Alcotest.failf "seed %d violated: %s (repro: %s)" seed v
            (Torture.repro_command ~seed ~steps:200)
      | None -> ());
      if o.Torture.verify_passes + o.Torture.explicit_verifies = 0 then
        Alcotest.failf "seed %d never ran the verifier" seed;
      if seed = 7 && o.Torture.wl_toggles = 0 then
        Alcotest.fail "device seed 7 never toggled wear leveling")
    [ 0; 1; 2; 3; 7 ]

let suite =
  [
    ("healthy heap passes", `Quick, test_healthy_heap_passes);
    ("catches live-count corruption", `Quick, test_catches_live_count_corruption);
    ("catches free-count corruption", `Quick, test_catches_free_count_corruption);
    ("catches bitmap divergence", `Quick, test_catches_bitmap_divergence);
    ("catches pool double-claim", `Quick, test_catches_pool_double_claim);
    ("catches accounting imbalance", `Quick, test_catches_accounting_imbalance);
    ("torture repro command", `Quick, test_repro_command_shape);
    ("torture seeds 0..3 clean", `Quick, test_torture_seeds_clean);
  ]
