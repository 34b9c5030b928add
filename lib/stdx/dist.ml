(** Probability distributions used by the workload generator and the PCM
    wear model.  All samplers take an explicit {!Xrng.t} so results are
    reproducible. *)

(** Standard normal via Box–Muller (one value per call; we do not cache the
    second value to keep the sampler stateless w.r.t. the distribution). *)
let normal (rng : Xrng.t) ~(mu : float) ~(sigma : float) : float =
  let u1 = max 1e-300 (Xrng.float rng) in
  let u2 = Xrng.float rng in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

(** Lognormal: [exp (normal mu sigma)].  Used for PCM cell endurance
    process variation (the paper cites ~1e8 writes per cell average). *)
let lognormal (rng : Xrng.t) ~(mu : float) ~(sigma : float) : float =
  exp (normal rng ~mu ~sigma)

(** Exponential with mean [mean]. *)
let exponential (rng : Xrng.t) ~(mean : float) : float =
  let u = max 1e-300 (Xrng.float rng) in
  -.mean *. log u

(** Geometric on {1, 2, ...} with success probability [p]. *)
let geometric (rng : Xrng.t) ~(p : float) : int =
  if p <= 0.0 || p > 1.0 then invalid_arg "Dist.geometric: p out of (0,1]";
  if p >= 1.0 then 1
  else
    let u = max 1e-300 (Xrng.float rng) in
    1 + int_of_float (log u /. log (1.0 -. p))

(** Zipf over {1..n} with exponent [s], via inverse-CDF on a precomputed
    table.  Returns a sampler function to amortize the table. *)
let zipf_sampler ~(n : int) ~(s : float) : Xrng.t -> int =
  if n <= 0 then invalid_arg "Dist.zipf_sampler: n must be positive";
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (i + 1) ** s));
    cdf.(i) <- !acc
  done;
  let total = !acc in
  fun rng ->
    let u = Xrng.float rng *. total in
    (* binary search for first cdf.(i) >= u *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo + 1

(** A discrete distribution over weighted choices.  [make] normalizes the
    weights; [sample] is O(log n) by binary search. *)
module Discrete = struct
  type 'a t = { items : 'a array; cum : float array }

  let make (pairs : (float * 'a) list) : 'a t =
    if pairs = [] then invalid_arg "Dist.Discrete.make: empty";
    List.iter (fun (w, _) -> if w < 0.0 then invalid_arg "Dist.Discrete.make: negative weight") pairs;
    let items = Array.of_list (List.map snd pairs) in
    let cum = Array.make (Array.length items) 0.0 in
    let acc = ref 0.0 in
    List.iteri
      (fun i (w, _) ->
        acc := !acc +. w;
        cum.(i) <- !acc)
      pairs;
    if !acc <= 0.0 then invalid_arg "Dist.Discrete.make: total weight zero";
    { items; cum }

  let sample (t : 'a t) (rng : Xrng.t) : 'a =
    let total = t.cum.(Array.length t.cum - 1) in
    let u = Xrng.float rng *. total in
    let lo = ref 0 and hi = ref (Array.length t.cum - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cum.(mid) < u then lo := mid + 1 else hi := mid
    done;
    t.items.(!lo)
end
