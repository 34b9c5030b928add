(** Per-line wear and error-correction exhaustion model.

    PCM cells wear out after ~1e8 writes on average (paper Sec. 2.2),
    with process variation making endurance non-uniform across cells.
    Tracking all 512 cells of a 64 B line is needlessly expensive; we
    model wear at line granularity: each line draws an endurance budget
    from a lognormal distribution (the accepted model for process
    variation), and an ECP-style corrector (Schechter et al., ISCA 2010 —
    cited as [22]) provides [ecp_entries] additional correction events,
    each extending the line's life by a further endurance draw scaled by
    [ecp_extension].  When the budget and all ECP entries are exhausted,
    the next write fails permanently: the line has a hole. *)

type params = {
  mean_endurance : float;  (** mean writes to first uncorrectable cell failure *)
  sigma : float;  (** lognormal shape parameter for process variation *)
  ecp_entries : int;  (** correction entries per line (ECP-6 by default) *)
  ecp_extension : float;  (** life extension fraction granted per ECP entry *)
}

let default_params =
  { mean_endurance = 1.0e8; sigma = 0.25; ecp_entries = 6; ecp_extension = 0.12 }

(** Scaled-down parameters for simulations that must wear memory out
    within a test run. *)
let fast_params = { default_params with mean_endurance = 2000.0 }

type line = {
  mutable writes : int;  (** total writes performed on this line *)
  mutable budget : int;  (** writes remaining before the next cell failure *)
  mutable ecp_used : int;  (** correction entries consumed *)
  mutable failed : bool;
}

(* lognormal with the requested arithmetic mean: mean = exp(mu + sigma^2/2) *)
let draw_endurance (rng : Holes_stdx.Xrng.t) (p : params) : int =
  let mu = log p.mean_endurance -. (p.sigma *. p.sigma /. 2.0) in
  let e = Holes_stdx.Dist.lognormal rng ~mu ~sigma:p.sigma in
  max 1 (int_of_float e)

let fresh_line (rng : Holes_stdx.Xrng.t) (p : params) : line =
  { writes = 0; budget = draw_endurance rng p; ecp_used = 0; failed = false }

type write_outcome =
  | Ok  (** the write stored correctly *)
  | Corrected  (** a cell failed but an ECP entry absorbed it *)
  | Failed  (** correction exhausted: the line has permanently failed *)

(** [write rng p l] performs one write on line [l], advancing the wear
    process.  Writes to an already-failed line report [Failed] without
    further state change (real hardware would never see them: the OS
    unmaps failed lines). *)
let write (rng : Holes_stdx.Xrng.t) (p : params) (l : line) : write_outcome =
  if l.failed then Failed
  else begin
    l.writes <- l.writes + 1;
    l.budget <- l.budget - 1;
    if l.budget > 0 then Ok
    else if l.ecp_used < p.ecp_entries then begin
      l.ecp_used <- l.ecp_used + 1;
      l.budget <- max 1 (int_of_float (float_of_int (draw_endurance rng p) *. p.ecp_extension));
      Corrected
    end
    else begin
      l.failed <- true;
      Failed
    end
  end

(** Fraction of the line's correction resources consumed, in [0, 1]. *)
let ecp_utilization (p : params) (l : line) : float =
  if p.ecp_entries = 0 then if l.failed then 1.0 else 0.0
  else float_of_int l.ecp_used /. float_of_int p.ecp_entries

(** {2 The flat wear table}

    The device keeps every line's wear in one [int array], three ints
    per line: writes, budget, and ECP entries used, the last -1 once
    the line has failed.  A store then touches three adjacent words
    instead of following a pointer to a record of its own.
    {!Table.write} is {!write} on that layout, draw for draw; the
    record model above is the reference it is checked against in
    lockstep. *)
module Table = struct
  type t = int array

  (** A table of [nlines] fresh lines, budgets drawn in line order (the
      order [Array.init nlines (fun _ -> fresh_line rng p)] draws them). *)
  let create (rng : Holes_stdx.Xrng.t) (p : params) ~(nlines : int) : t =
    let w = Array.make (3 * nlines) 0 in
    for l = 0 to nlines - 1 do
      w.((3 * l) + 1) <- draw_endurance rng p
    done;
    w

  let writes (w : t) (l : int) : int = w.(3 * l)

  let budget (w : t) (l : int) : int = w.((3 * l) + 1)

  (** ECP entries used, or -1 once the line has failed. *)
  let ecp_used (w : t) (l : int) : int = w.((3 * l) + 2)

  let failed (w : t) (l : int) : bool = w.((3 * l) + 2) < 0

  (** Mark line [l] failed without a write (a boot-time failure). *)
  let fail (w : t) (l : int) : unit = w.((3 * l) + 2) <- -1

  (** {!write} on line [l] of the table. *)
  let write (rng : Holes_stdx.Xrng.t) (p : params) (w : t) (l : int) : write_outcome =
    let i = 3 * l in
    let ecp = w.(i + 2) in
    if ecp < 0 then Failed
    else begin
      w.(i) <- w.(i) + 1;
      let budget = w.(i + 1) - 1 in
      w.(i + 1) <- budget;
      if budget > 0 then Ok
      else if ecp < p.ecp_entries then begin
        w.(i + 2) <- ecp + 1;
        w.(i + 1) <- max 1 (int_of_float (float_of_int (draw_endurance rng p) *. p.ecp_extension));
        Corrected
      end
      else begin
        w.(i + 2) <- -1;
        Failed
      end
    end
end

(** {2 Endurance variation shapes}

    The paper models process variation as lognormal endurance; SoftWear-style
    weak-cell studies use a (truncated) Gaussian instead.  Both are exposed
    here parameterized by the coefficient of variation (CoV = sigma/mean) so
    failure models can be specified in distribution-independent terms. *)

type shape =
  | Lognormal  (** the paper's model: multiplicative process variation *)
  | Gaussian  (** additive weak-cell variation, truncated at (almost) zero *)

(** Lognormal shape parameter whose distribution has the given CoV:
    CoV² = exp(sigma²) − 1, so sigma = sqrt(log(1 + CoV²)). *)
let lognormal_sigma ~(cov : float) : float =
  if cov < 0.0 then invalid_arg "Wear.lognormal_sigma: negative CoV";
  sqrt (log (1.0 +. (cov *. cov)))

(** [draw_factor rng ~shape ~cov] draws a mean-1 endurance scale factor
    with coefficient of variation [cov].  Lognormal uses
    mu = −sigma²/2 so the arithmetic mean is exactly 1; Gaussian draws
    N(1, cov) truncated just above zero (a cell cannot have negative
    endurance — the truncation is negligible for CoV ≲ 0.3). *)
let draw_factor (rng : Holes_stdx.Xrng.t) ~(shape : shape) ~(cov : float) : float =
  match shape with
  | Lognormal ->
      let sigma = lognormal_sigma ~cov in
      Holes_stdx.Dist.lognormal rng ~mu:(-.(sigma *. sigma) /. 2.0) ~sigma
  | Gaussian -> Float.max 1e-6 (Holes_stdx.Dist.normal rng ~mu:1.0 ~sigma:cov)
