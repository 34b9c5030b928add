(* Statistical tests for the adversarial failure models: generated maps
   and event streams must match their configured parameters, and the
   paranoid verifier must be observationally free (identical Metrics
   with the verifier on and off). *)

open Holes_stdx
module Fm = Holes_pcm.Failure_model
module Wear = Holes_pcm.Wear
module Cfg = Holes.Config

let check = Alcotest.check

let within ~(tol : float) (msg : string) (expected : float) (actual : float) =
  if Float.abs (actual -. expected) > tol *. expected then
    Alcotest.failf "%s: expected %.3f within %.0f%%, got %.3f" msg expected (100.0 *. tol)
      actual

(* -- spatial correlation ------------------------------------------- *)

let test_correlated_mean_cluster () =
  let nlines = 1 lsl 17 in
  let rate = 0.10 in
  List.iter
    (fun mean_cluster ->
      let rng = Xrng.of_seed 11 in
      let map =
        Fm.correlated_map rng ~nlines ~rate ~mean_cluster ~region_lines:64
      in
      (* exact failure count, independent of clustering *)
      check Alcotest.int "failed lines"
        (int_of_float (Float.round (rate *. float_of_int nlines)))
        (Bitset.count map);
      (* clusters are geometric with the configured mean, clipped at
         aligned region boundaries, and adjacent clusters can merge —
         clipping pushes the observed mean down, merging up.  ±25%
         brackets both effects at 10% occupancy. *)
      within ~tol:0.25 "mean cluster size" mean_cluster (Fm.mean_cluster_size map))
    [ 2.0; 4.0; 8.0 ]

let test_correlated_is_clustered () =
  (* the whole point: at equal rates, the correlated map must have far
     fewer, larger clusters than the uniform map *)
  let nlines = 1 lsl 16 in
  let rng = Xrng.of_seed 3 in
  let corr = Fm.correlated_map rng ~nlines ~rate:0.2 ~mean_cluster:8.0 ~region_lines:64 in
  let uni = Holes_pcm.Failure_map.uniform (Xrng.of_seed 3) ~nlines ~rate:0.2 in
  check Alcotest.int "same count" (Bitset.count uni) (Bitset.count corr);
  let mc = Fm.mean_cluster_size corr and mu = Fm.mean_cluster_size uni in
  if mc < 2.0 *. mu then
    Alcotest.failf "correlated map not clustered: corr mean %.2f vs uniform %.2f" mc mu

(* -- endurance variation ------------------------------------------- *)

let test_variation_cov () =
  List.iter
    (fun (shape, cov) ->
      let rng = Xrng.of_seed 5 in
      let fs = Fm.draw_factors rng ~shape ~cov ~n:200_000 in
      within ~tol:0.05 "endurance CoV" cov (Fm.cov_of fs);
      (* mean-1 factors: scaling endurance, not shifting it *)
      within ~tol:0.05 "factor mean" 1.0
        (Array.fold_left ( +. ) 0.0 fs /. float_of_int (Array.length fs)))
    [ (Wear.Lognormal, 0.2); (Wear.Lognormal, 0.4); (Wear.Gaussian, 0.3) ]

let test_variation_map_is_weakest_k () =
  let nlines = 4096 and rate = 0.25 in
  let rng = Xrng.of_seed 7 in
  let map = Fm.variation_map rng ~nlines ~rate ~cov:0.3 ~shape:Wear.Lognormal in
  check Alcotest.int "failed lines"
    (int_of_float (Float.round (rate *. float_of_int nlines)))
    (Bitset.count map)

(* -- storms and adversarial timing --------------------------------- *)

let test_storm_statistics () =
  let spec = Fm.Storm { mean_burst = 6.0; period_bytes = 50_000 } in
  let rng = Xrng.of_seed 13 in
  let n = 20_000 in
  let sum_i = ref 0 and sum_b = ref 0 in
  for _ = 1 to n do
    sum_i := !sum_i + Fm.next_interval spec rng;
    sum_b := !sum_b + Fm.burst_size spec rng
  done;
  within ~tol:0.05 "mean storm interval" 50_000.0 (float_of_int !sum_i /. float_of_int n);
  within ~tol:0.05 "mean burst size" 6.0 (float_of_int !sum_b /. float_of_int n)

let test_adversarial_is_exact () =
  let spec = Fm.Adversarial { period_bytes = 4096 } in
  let rng = Xrng.of_seed 17 in
  for _ = 1 to 100 do
    check Alcotest.int "exact period" 4096 (Fm.next_interval spec rng);
    check Alcotest.int "single strike" 1 (Fm.burst_size spec rng)
  done

(* -- CLI round-trip ------------------------------------------------ *)

let test_cli_roundtrip () =
  List.iter
    (fun spec ->
      match Fm.of_cli (Fm.to_cli spec) with
      | Ok s -> check Alcotest.string "round trip" (Fm.name spec) (Fm.name s)
      | Error m -> Alcotest.failf "of_cli (to_cli %s) failed: %s" (Fm.name spec) m)
    [
      Fm.Correlated { mean_cluster = 4.0; region_lines = 64 };
      Fm.Variation { cov = 0.3; shape = Wear.Lognormal };
      Fm.Variation { cov = 0.25; shape = Wear.Gaussian };
      Fm.Storm { mean_burst = 8.0; period_bytes = 65536 };
      Fm.Adversarial { period_bytes = 32768 };
    ];
  match Fm.of_cli "corr:0" with
  | Ok _ -> Alcotest.fail "expected rejection of corr:0"
  | Error _ -> ()

(* -- verifier transparency ----------------------------------------- *)

(* verifier-on and verifier-off runs of the same configuration must
   produce bit-identical Metrics (the verify counters themselves are
   excluded from [to_fields]) *)
let test_verifier_observationally_free () =
  List.iter
    (fun failure_dist ->
      let base =
        {
          Cfg.default with
          Cfg.failure_rate = 0.25;
          failure_dist;
          seed = 91;
        }
      in
      let run verify =
        let cfg = { base with Cfg.verify } in
        let vm = Holes.Vm.create ~cfg ~min_heap_bytes:(384 * 1024) () in
        let profile =
          Holes_workload.Profile.scaled Holes_workload.Dacapo.avrora 0.02
        in
        let res = Holes_workload.Generator.run ~rng:(Xrng.of_seed 23) vm profile in
        Holes.Metrics.to_fields res.Holes_workload.Generator.metrics
      in
      let off = run false and on = run true in
      check
        Alcotest.(list (pair string (float 0.0)))
        "metrics identical" off on)
    [
      Cfg.Uniform;
      Cfg.Model (Fm.Correlated { mean_cluster = 4.0; region_lines = 64 });
      Cfg.Model (Fm.Storm { mean_burst = 4.0; period_bytes = 65536 });
    ]

let suite =
  [
    ("correlated: mean cluster size", `Quick, test_correlated_mean_cluster);
    ("correlated: beats uniform clustering", `Quick, test_correlated_is_clustered);
    ("variation: CoV matches parameter", `Quick, test_variation_cov);
    ("variation: weakest-k count", `Quick, test_variation_map_is_weakest_k);
    ("storm: interval and burst statistics", `Quick, test_storm_statistics);
    ("adversarial: exact cadence", `Quick, test_adversarial_is_exact);
    ("cli round-trip", `Quick, test_cli_roundtrip);
    ("verifier on/off: identical metrics", `Quick, test_verifier_observationally_free);
  ]
