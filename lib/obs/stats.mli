(** Cheap log{_2}-bucket histograms.

    The observability layer needs distribution summaries (pause times,
    lines examined per hole search, failure-buffer occupancy) that are
    deterministic, mergeable across trials, and cheap enough to update on
    allocator hot paths.  A histogram here is 64 power-of-two buckets
    plus exact count/sum/min/max: [observe] is a handful of arithmetic
    operations and one array increment.  Sum, min and max live unboxed
    in a [float array], so an update stores no boxed float; an integer
    sample taken with [observe_int] allocates nothing at all.

    Histograms are plain mutable records (no closures), so structural
    equality — used by the engine's [-j 1] = [-j N] determinism tests —
    works on any record embedding them. *)

(** {1 Histograms} *)

val nbuckets : int
(** Number of buckets (64). *)

(** A log{_2}-bucket histogram.  Bucket [b] counts observations in
    [\[2{^b-1}, 2{^b})]; bucket 0 holds everything below 1 (including
    zero and negatives).  The fields are exposed so consumers can fold
    histograms into structurally comparable records. *)
type hist = {
  mutable count : int;
  acc : float array;
      (** sum, min and max, in that order and unboxed; min is
          [infinity] and max [neg_infinity] while empty *)
  buckets : int array;
}

val hist : unit -> hist
(** A fresh, empty histogram. *)

val bucket_of : float -> int
(** The bucket index a value falls into. *)

val bucket_of_int : int -> int
(** [bucket_of_int n] is [bucket_of (float_of_int n)], computed without
    the float. *)

val observe : hist -> float -> unit
(** Record one observation.  O(1) and allocates nothing itself, but a
    caller whose call is not inlined boxes the float it passes: take
    integer samples with [observe_int]. *)

val observe_int : hist -> int -> unit
(** [observe_int h n] is [observe h (float_of_int n)]: the same
    additions in the same order, leaving a bit-identical histogram, but
    the float is never boxed, so it allocates nothing.  For integer
    samples on hot paths (occupancy, lines examined, latencies in ns). *)

val count : hist -> int
(** Number of observations. *)

val total : hist -> float
(** Sum of all observations. *)

val mean : hist -> float
(** Mean observation (0 when empty). *)

val min_value : hist -> float
(** Smallest observation (0 when empty). *)

val max_value : hist -> float
(** Largest observation (0 when empty). *)

val quantile : ?interp:bool -> hist -> float -> float
(** [quantile h q] estimates the [q]-quantile ([q] clamped to [\[0,1\]])
    as the upper bound of the bucket holding the [q]-th observation,
    clamped to the observed [min]/[max].  Precision is one power of two
    — adequate for pause-time p50/p99 reporting.

    With [~interp:true] the estimate is refined by sub-bucket linear
    interpolation: the target rank is placed proportionally between the
    bucket's edges, which are themselves anchored by the exact observed
    extremes, so [quantile ~interp:true h 1.0] returns the exact
    maximum.  Log{_2} buckets alone are too coarse to state a
    pause-time SLO (a p999 answer of "somewhere below 2{^21} ns" spans
    a factor of two); interpolation brings the error well under one
    bucket width for smooth distributions.  The default ([false])
    preserves the historical estimator bit-for-bit. *)

val merge : hist -> hist -> unit
(** [merge into src] folds [src]'s observations into [into]. *)

val merged : hist list -> hist
(** A fresh histogram holding the union of the inputs. *)

val copy : hist -> hist
(** An independent copy. *)

val to_fields : prefix:string -> hist -> (string * float) list
(** Flat key/value summary ([_count], [_mean], [_p50], [_p99], [_max]),
    ready for the engine's JSONL sink. *)

val summary_string : hist -> string
(** One-line human-readable summary. *)

(** {2 Running moments}

    A constant-space accumulator for dispersion statistics — used for
    the wear coefficient-of-variation over a device's per-line write
    counts, where a histogram's power-of-two quantiles are too coarse. *)

type moments

val moments : unit -> moments
(** A fresh, empty accumulator. *)

val accumulate : moments -> float -> unit
(** Fold one observation in. *)

val moments_mean : moments -> float
(** Mean observation (0 when empty). *)

val moments_stddev : moments -> float
(** Population standard deviation (0 when empty). *)

val cov : moments -> float
(** Coefficient of variation: stddev / mean, 0 when the mean is 0 —
    the "how level is the wear" scalar of the Sec. 7.2 ablation. *)
