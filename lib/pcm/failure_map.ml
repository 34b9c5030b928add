(** Failure-map generation — the paper's fault-injection methodology
    (Sec. 5 "Failure map generation", Sec. 6.3, Sec. 6.4).

    A failure map has one bit per 64 B PCM line.  Three generators:

    - {!uniform}: failures uniformly distributed over lines — the model of
      wear-leveled PCM the paper evaluates by default.
    - {!clustered}: the Sec. 6.4 limit study — step through aligned
      granules of [2^N] lines and fail whole granules, keeping the
      line-failure probability at [rate] but guaranteeing gaps of at least
      the granule size.
    - {!cluster_transform}: the proposed clustering hardware — take a
      uniform map and move each region's failures to the start (even
      regions) or end (odd regions), exactly as the paper evaluates its
      one- and two-page clustering ("these experiments use a failure map
      with uniformly distributed 64-byte line failures, and then move
      those failures according to our one- and two-page clustering
      algorithm").

    To reduce run-to-run variance we fail an exact count of
    [round (rate * n)] lines/granules (sampled without replacement)
    rather than flipping a coin per granule; expected rates match the
    paper's generator and confidence intervals shrink. *)

open Holes_stdx

(* Sample [k] distinct ints in [0, n) without replacement (partial
   Fisher-Yates over an index array). *)
let sample_without_replacement (rng : Xrng.t) ~(n : int) ~(k : int) : int array =
  if k < 0 || k > n then invalid_arg "Failure_map: sample count out of range";
  if k = 0 then [||]
  else begin
    (* identity fill by hand: [Array.init n Fun.id] pays a closure call
       per element, and heap-map generation runs this over every PCM
       line of every simulated device *)
    let idx = Array.make n 0 in
    for i = 1 to n - 1 do
      Array.unsafe_set idx i i
    done;
    (* partial Fisher-Yates; [j] lies in [i, n), so the swaps are in
       bounds by construction *)
    for i = 0 to k - 1 do
      let j = i + Xrng.int rng (n - i) in
      let tmp = Array.unsafe_get idx i in
      Array.unsafe_set idx i (Array.unsafe_get idx j);
      Array.unsafe_set idx j tmp
    done;
    Array.sub idx 0 k
  end

(** [uniform rng ~nlines ~rate] fails exactly [round (rate * nlines)]
    lines chosen uniformly. *)
let uniform (rng : Xrng.t) ~(nlines : int) ~(rate : float) : Bitset.t =
  if rate < 0.0 || rate > 1.0 then invalid_arg "Failure_map.uniform: rate out of [0,1]";
  let k = int_of_float (Float.round (rate *. float_of_int nlines)) in
  let map = Bitset.create nlines in
  Array.iter (Bitset.set map) (sample_without_replacement rng ~n:nlines ~k);
  map

(** [clustered rng ~nlines ~rate ~granule_lines] fails whole aligned
    granules of [granule_lines] lines; the overall line-failure rate stays
    [rate] but failures arrive in contiguous chunks — the Sec. 6.4 limit
    study at granularities 64 B ([granule_lines]=1) through 16 KB (256). *)
let clustered (rng : Xrng.t) ~(nlines : int) ~(rate : float) ~(granule_lines : int) : Bitset.t =
  if granule_lines <= 0 then invalid_arg "Failure_map.clustered: granule must be positive";
  if nlines mod granule_lines <> 0 then
    invalid_arg "Failure_map.clustered: nlines must be a multiple of the granule";
  let ngran = nlines / granule_lines in
  let k = int_of_float (Float.round (rate *. float_of_int ngran)) in
  let map = Bitset.create nlines in
  sample_without_replacement rng ~n:ngran ~k
  |> Array.iter (fun g ->
         for i = 0 to granule_lines - 1 do
           Bitset.set map ((g * granule_lines) + i)
         done);
  map

(** [cluster_transform map ~region_pages] models the proposed clustering
    hardware: within each region of [region_pages] pages, the same number
    of lines fail, but they are moved to the start of even-indexed regions
    and the end of odd-indexed regions.  Following the paper, the
    redirection-map metadata lines are not charged. *)
let cluster_transform (map : Bitset.t) ~(region_pages : int) : Bitset.t =
  let nlines = Bitset.length map in
  let rl = Geometry.lines_per_region ~region_pages in
  if nlines mod rl <> 0 then
    invalid_arg "Failure_map.cluster_transform: map not a whole number of regions";
  let nregions = nlines / rl in
  let out = Bitset.create nlines in
  for r = 0 to nregions - 1 do
    let base = r * rl in
    let failures = ref 0 in
    for i = 0 to rl - 1 do
      if Bitset.get map (base + i) then incr failures
    done;
    if r mod 2 = 0 then
      for i = 0 to !failures - 1 do
        Bitset.set out (base + i)
      done
    else
      for i = 0 to !failures - 1 do
        Bitset.set out (base + rl - 1 - i)
      done
  done;
  out

(** Failure rate of [map]. *)
let rate (map : Bitset.t) : float =
  if Bitset.length map = 0 then 0.0
  else float_of_int (Bitset.count map) /. float_of_int (Bitset.length map)

(** Per-page failed-line counts (64 lines per page), used by the OS pools
    and by the perfect-page statistics of Fig. 9(b). *)
let per_page_counts (map : Bitset.t) : int array =
  let nlines = Bitset.length map in
  let lpp = Geometry.lines_per_page in
  let npages = (nlines + lpp - 1) / lpp in
  let counts = Array.make npages 0 in
  Bitset.iter_set map (fun i -> counts.(i / lpp) <- counts.(i / lpp) + 1);
  counts

(** Number of perfect (failure-free) pages described by [map]. *)
let perfect_pages (map : Bitset.t) : int =
  Array.fold_left (fun acc c -> if c = 0 then acc + 1 else acc) 0 (per_page_counts map)
