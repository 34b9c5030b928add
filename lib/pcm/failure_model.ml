(** Adversarial failure models (beyond the paper's uniform maps).

    The paper's fault-injection methodology (Sec. 5) distributes line
    failures uniformly — the behavior of ideally wear-leveled PCM.
    Related work on wear management (WoLFRaM, SoftWear) shows the
    realistic adversary is *spatially correlated* and *variation-driven*
    wear, and a failure-buffer-based device (Sec. 3.1) additionally has a
    worst case in *time*: bursts that fill the buffer faster than the OS
    drains it.  This module packages those adversaries behind one spec
    type so `Config` can select them per trial:

    - {!Correlated}: static maps whose failures arrive in clusters with a
      geometric size distribution (configurable mean, in 64 B lines),
      each cluster confined to an aligned region (a page by default) —
      the spatial-correlation regime between the paper's uniform maps and
      its Sec. 6.4 whole-granule limit study.
    - {!Variation}: static maps from per-line endurance variation with a
      configurable coefficient of variation — every line draws a mean-1
      endurance factor (lognormal, the paper's model generalized; or the
      Gaussian weak-cell option) and the weakest [rate] fraction fail.
    - {!Storm}: dynamic bursts of line failures at exponentially
      distributed intervals of allocation work; burst sizes are geometric
      with a configurable mean, sized to stress the device failure buffer
      to overflow (insert → stall → drain).
    - {!Adversarial}: worst-case placement — periodically fail exactly
      the line the allocator's bump cursor is about to cross, forcing a
      dynamic failure in freshly allocated memory every time.

    All draws take an explicit {!Holes_stdx.Xrng.t} seeded from the trial
    seed, so `-j 1` and `-j N` runs stay bit-identical. *)

open Holes_stdx

type spec =
  | Correlated of {
      mean_cluster : float;  (** mean cluster size in 64 B lines (geometric) *)
      region_lines : int;  (** clusters never span an aligned region boundary *)
    }
  | Variation of {
      cov : float;  (** coefficient of variation of per-line endurance *)
      shape : Wear.shape;
    }
  | Storm of {
      mean_burst : float;  (** mean lines failed per storm (geometric) *)
      period_bytes : int;  (** mean allocation bytes between storms (exponential) *)
    }
  | Adversarial of { period_bytes : int  (** exact allocation bytes between strikes *) }

(** Compact, name-safe rendering used in [Config.name] (and therefore in
    the deterministic trial-seed derivation): distinct specs must render
    distinctly. *)
let name (s : spec) : string =
  match s with
  | Correlated { mean_cluster; region_lines } ->
      if region_lines = Geometry.lines_per_page then Printf.sprintf "corr%g" mean_cluster
      else Printf.sprintf "corr%g/%d" mean_cluster region_lines
  | Variation { cov; shape } ->
      Printf.sprintf "var%g%s" cov (match shape with Wear.Lognormal -> "" | Wear.Gaussian -> "g")
  | Storm { mean_burst; period_bytes } -> Printf.sprintf "storm%gx%d" mean_burst period_bytes
  | Adversarial { period_bytes } -> Printf.sprintf "adv%d" period_bytes

let validate (s : spec) : (unit, string) result =
  match s with
  | Correlated { mean_cluster; region_lines } ->
      if mean_cluster < 1.0 then Error "Correlated: mean cluster size must be >= 1 line"
      else if region_lines < 1 then Error "Correlated: region must be >= 1 line"
      else Ok ()
  | Variation { cov; _ } ->
      if cov <= 0.0 then Error "Variation: CoV must be positive" else Ok ()
  | Storm { mean_burst; period_bytes } ->
      if mean_burst < 1.0 then Error "Storm: mean burst must be >= 1 line"
      else if period_bytes <= 0 then Error "Storm: period must be positive"
      else Ok ()
  | Adversarial { period_bytes } ->
      if period_bytes <= 0 then Error "Adversarial: period must be positive" else Ok ()

(** Dynamic models inject failures while the mutator runs (via the VM's
    injector); static models only shape the initial map. *)
let is_dynamic (s : spec) : bool =
  match s with Storm _ | Adversarial _ -> true | Correlated _ | Variation _ -> false

(* ------------------------------------------------------------------ *)
(* Static map generation                                               *)

(* Exact-count clustered map: place geometric-size clusters at uniform
   starts, clipped to their aligned region, until round(rate*nlines)
   lines are failed.  A bounded number of random attempts keeps the
   count exact even at high rates; any shortfall (vanishingly rare) is
   filled by a deterministic scan. *)
let correlated_map (rng : Xrng.t) ~(nlines : int) ~(rate : float) ~(mean_cluster : float)
    ~(region_lines : int) : Bitset.t =
  if rate < 0.0 || rate > 1.0 then invalid_arg "Failure_model: rate out of [0,1]";
  let k = int_of_float (Float.round (rate *. float_of_int nlines)) in
  let map = Bitset.create nlines in
  let placed = ref 0 in
  let p = 1.0 /. Float.max 1.0 mean_cluster in
  let attempts = ref 0 in
  let max_attempts = 16 * (nlines + 64) in
  while !placed < k && !attempts < max_attempts do
    incr attempts;
    let size = min (Dist.geometric rng ~p) (k - !placed) in
    let start = Xrng.int rng nlines in
    let region_end = ((start / region_lines) + 1) * region_lines in
    let stop = min nlines (min region_end (start + size)) in
    for i = start to stop - 1 do
      if not (Bitset.get map i) then begin
        Bitset.set map i;
        incr placed
      end
    done
  done;
  (* Deterministic fill if random placement could not reach the count. *)
  let i = ref 0 in
  while !placed < k && !i < nlines do
    if not (Bitset.get map !i) then begin
      Bitset.set map !i;
      incr placed
    end;
    incr i
  done;
  map

(** Per-line endurance factors (mean 1, coefficient of variation [cov])
    for [n] lines — exposed for the statistical tests. *)
let draw_factors (rng : Xrng.t) ~(shape : Wear.shape) ~(cov : float) ~(n : int) : float array =
  Array.init n (fun _ -> Wear.draw_factor rng ~shape ~cov)

(* Variation map: fail the round(rate*nlines) weakest lines.  Ties break
   by line index so the map is a deterministic function of the draws. *)
let variation_map (rng : Xrng.t) ~(nlines : int) ~(rate : float) ~(cov : float)
    ~(shape : Wear.shape) : Bitset.t =
  if rate < 0.0 || rate > 1.0 then invalid_arg "Failure_model: rate out of [0,1]";
  let k = int_of_float (Float.round (rate *. float_of_int nlines)) in
  let factors = draw_factors rng ~shape ~cov ~n:nlines in
  let order = Array.init nlines Fun.id in
  Array.sort
    (fun a b ->
      let c = Float.compare factors.(a) factors.(b) in
      if c <> 0 then c else Int.compare a b)
    order;
  let map = Bitset.create nlines in
  for i = 0 to k - 1 do
    Bitset.set map order.(i)
  done;
  map

(** [static_map s rng ~nlines ~rate] generates the initial failure map
    for spec [s].  Dynamic specs (Storm/Adversarial) start from the
    paper's uniform map at [rate] (usually 0) and inject the rest at
    run time. *)
let static_map (s : spec) (rng : Xrng.t) ~(nlines : int) ~(rate : float) : Bitset.t =
  match s with
  | Correlated { mean_cluster; region_lines } ->
      correlated_map rng ~nlines ~rate ~mean_cluster ~region_lines
  | Variation { cov; shape } -> variation_map rng ~nlines ~rate ~cov ~shape
  | Storm _ | Adversarial _ -> Failure_map.uniform rng ~nlines ~rate

(* ------------------------------------------------------------------ *)
(* Dynamic schedules (driven by the VM's injector)                     *)

(** Allocation bytes until the next injection event.  Storms arrive at
    exponentially distributed intervals; the adversary strikes on an
    exact period (worst case needs no luck). *)
let next_interval (s : spec) (rng : Xrng.t) : int =
  match s with
  | Storm { period_bytes; _ } ->
      max 1 (int_of_float (Dist.exponential rng ~mean:(float_of_int period_bytes)))
  | Adversarial { period_bytes } -> period_bytes
  | Correlated _ | Variation _ -> invalid_arg "Failure_model.next_interval: static model"

(** Lines failed by one event. *)
let burst_size (s : spec) (rng : Xrng.t) : int =
  match s with
  | Storm { mean_burst; _ } -> Dist.geometric rng ~p:(1.0 /. Float.max 1.0 mean_burst)
  | Adversarial _ -> 1
  | Correlated _ | Variation _ -> invalid_arg "Failure_model.burst_size: static model"

(* ------------------------------------------------------------------ *)
(* Measurement helpers (statistical tests, EXPERIMENTS tables)         *)

(** Sizes of the maximal runs of consecutive failed lines in [map]. *)
let cluster_sizes (map : Bitset.t) : int list =
  let n = Bitset.length map in
  let out = ref [] in
  let run = ref 0 in
  for i = 0 to n - 1 do
    if Bitset.get map i then incr run
    else if !run > 0 then begin
      out := !run :: !out;
      run := 0
    end
  done;
  if !run > 0 then out := !run :: !out;
  List.rev !out

(** Mean failed-cluster size of [map] (0 when no line failed). *)
let mean_cluster_size (map : Bitset.t) : float =
  match cluster_sizes map with
  | [] -> 0.0
  | cs -> float_of_int (List.fold_left ( + ) 0 cs) /. float_of_int (List.length cs)

(** Sample coefficient of variation of [xs]. *)
let cov_of (xs : float array) : float =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let mean = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
    let var =
      Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0 xs
      /. float_of_int (n - 1)
    in
    if mean = 0.0 then 0.0 else sqrt var /. mean
  end

(* ------------------------------------------------------------------ *)
(* CLI syntax: a compact round-trippable form for --dist flags and      *)
(* torture repro commands.                                             *)

(** [to_cli s] renders [s] in the syntax {!of_cli} parses. *)
let to_cli (s : spec) : string =
  match s with
  | Correlated { mean_cluster; region_lines } ->
      Printf.sprintf "corr:%g:%d" mean_cluster region_lines
  | Variation { cov; shape } ->
      Printf.sprintf "var:%g:%s" cov
        (match shape with Wear.Lognormal -> "lognormal" | Wear.Gaussian -> "gauss")
  | Storm { mean_burst; period_bytes } -> Printf.sprintf "storm:%g:%d" mean_burst period_bytes
  | Adversarial { period_bytes } -> Printf.sprintf "adv:%d" period_bytes

(** Parse the compact CLI form:
    ["corr:MEAN[:REGION_LINES]"], ["var:COV[:lognormal|gauss]"],
    ["storm:BURST:PERIOD_BYTES"], ["adv:PERIOD_BYTES"]. *)
let of_cli (s : string) : (spec, string) result =
  let bad () = Error (Printf.sprintf "unknown failure model %S" s) in
  let float_of s = float_of_string_opt s and int_of s = int_of_string_opt s in
  let spec =
    match String.split_on_char ':' s with
    | [ "corr"; m ] ->
        Option.map
          (fun m -> Correlated { mean_cluster = m; region_lines = Geometry.lines_per_page })
          (float_of m)
    | [ "corr"; m; r ] ->
        Option.bind (float_of m) (fun m ->
            Option.map (fun r -> Correlated { mean_cluster = m; region_lines = r }) (int_of r))
    | [ "var"; c ] -> Option.map (fun cov -> Variation { cov; shape = Wear.Lognormal }) (float_of c)
    | [ "var"; c; sh ] ->
        Option.bind (float_of c) (fun cov ->
            match sh with
            | "lognormal" -> Some (Variation { cov; shape = Wear.Lognormal })
            | "gauss" | "gaussian" -> Some (Variation { cov; shape = Wear.Gaussian })
            | _ -> None)
    | [ "storm"; b; p ] ->
        Option.bind (float_of b) (fun mean_burst ->
            Option.map (fun period_bytes -> Storm { mean_burst; period_bytes }) (int_of p))
    | [ "adv"; p ] -> Option.map (fun period_bytes -> Adversarial { period_bytes }) (int_of p)
    | _ -> None
  in
  match spec with
  | None -> bad ()
  | Some sp -> ( match validate sp with Ok () -> Ok sp | Error e -> Error e)
