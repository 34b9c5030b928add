(** Synthetic wear-out failure maps (test-only cross-check).

    This used to be the Sec. 7.2 "Wear Leveling Considered Harmful"
    ablation.  The headline result now comes from {!Wear_policies},
    which runs the device's actual wear leveler; what remains here is
    the closed-form wear model it is cross-checked against: a live
    start-gap leveler should reproduce the uniform-scatter failure
    pattern of [wear_map ~leveled:true]
    (statistically, on failure-location dispersion — see
    [test/test_translate.ml]), while unleveled traffic concentrates
    failures into hot pages.

    Model: per-line endurance is lognormal (process variation); write
    traffic is Zipf-distributed over 4 KB pages (unleveled) or uniform
    (leveled).  A line fails when its accumulated writes exceed its
    endurance, so for a target failure count k the k lines with the
    smallest endurance/traffic ratio fail — no time-stepping needed. *)

open Holes_stdx

(** Build a wear-out failure map with exactly [round (rate*nlines)]
    failures.  [leveled] selects uniform (wear-leveled) vs Zipf
    page-local (unleveled) write traffic. *)
let wear_map (rng : Xrng.t) ~(nlines : int) ~(rate : float) ~(leveled : bool) : Bitset.t =
  let lpp = Holes_pcm.Geometry.lines_per_page in
  let npages = (nlines + lpp - 1) / lpp in
  let page_weight =
    if leveled then fun _ -> 1.0
    else begin
      (* Zipf traffic over pages, shuffled so hot pages are scattered *)
      let order = Array.init npages Fun.id in
      Xrng.shuffle rng order;
      let w = Array.make npages 0.0 in
      Array.iteri (fun rank page -> w.(page) <- 1.0 /. ((float_of_int rank +. 1.0) ** 0.9)) order;
      fun p -> w.(p)
    end
  in
  (* failure order: ascending endurance / traffic *)
  let score =
    Array.init nlines (fun i ->
        let endurance = Dist.lognormal rng ~mu:0.0 ~sigma:0.25 in
        let traffic = page_weight (i / lpp) in
        (endurance /. traffic, i))
  in
  Array.sort compare score;
  let k = int_of_float (Float.round (rate *. float_of_int nlines)) in
  let map = Bitset.create nlines in
  for j = 0 to k - 1 do
    Bitset.set map (snd score.(j))
  done;
  map

(** Failure-location dispersion of a map: mean run length of contiguous
    failed lines.  Clustered wear produces long runs; uniform scatter
    drives it toward 1/(1-rate).  The live-vs-synthetic cross-check in
    [test/test_translate.ml] compares this statistic directly. *)
let mean_failed_run (map : Bitset.t) : float =
  let n = Bitset.length map in
  let runs = ref 0 and failed = ref 0 in
  let in_run = ref false in
  for i = 0 to n - 1 do
    if Bitset.get map i then begin
      incr failed;
      if not !in_run then incr runs;
      in_run := true
    end
    else in_run := false
  done;
  if !runs = 0 then 0.0 else float_of_int !failed /. float_of_int !runs
