(** The deterministic cost model.

    The paper measures wall-clock on a Core i7; we run a simulator, so
    "execution time" is a weighted sum of allocator/collector events.
    One cost unit models one nanosecond.  Weights are calibrated against
    the paper's absolute anchors (Sec. 4.2: a full-heap collection of a
    DaCapo benchmark averages ≈7 ms; average total execution 1817 ms with
    ≈14.7 collections) and against the relative shapes of Figs. 3–10.
    Every weight is documented with the mechanism it charges; figures are
    reported normalized, so only relative magnitudes matter for shape. *)

type weights = {
  alloc_fast : float;  (** bump-pointer fast path, per allocation *)
  alloc_byte : float;  (** per allocated byte (zeroing, header init) *)
  hole_skip : float;
      (** per bump-cursor hole transition: the slow path plus the locality
          penalty of scattering consecutively allocated objects *)
  line_scan : float;  (** per line examined while searching for holes *)
  block_open : float;  (** per block the allocator starts allocating into *)
  block_assemble : float;  (** per block assembled from / dissolved to OS pages *)
  free_list_alloc : float;  (** mark-sweep free-list pop, per allocation (extra) *)
  ms_byte : float;  (** mark-sweep extra per-byte mutator cost (locality) *)
  write_barrier : float;  (** per barrier slow path *)
  gc_fixed : float;  (** fixed cost per full collection (roots, rendezvous) *)
  gc_nursery_fixed : float;  (** fixed cost per nursery collection *)
  mark_obj : float;  (** per live object traced *)
  mark_edge : float;  (** per reference edge scanned *)
  copy_byte : float;  (** per byte copied (evacuation, nursery copy) *)
  sweep_line : float;  (** per line-mark byte scanned during sweep *)
  sweep_cell : float;  (** per free-list cell examined during MS sweep *)
  remset_entry : float;  (** per remembered-set entry processed *)
  los_page : float;  (** per page allocated or freed in the LOS *)
  arraylet_byte : float;
      (** per byte of a discontiguous array: the amortized spine
          indirection cost on accesses (Sartor et al. report <13%
          average overhead; the weight models that against the
          combined allocation+access cost of an array byte) *)
  perfect_request : float;  (** per fussy request for a perfect page *)
  dram_borrow : float;  (** per borrowed DRAM page (OS round trip) *)
}

(** Calibrated default weights (units: ns). *)
let default : weights =
  {
    alloc_fast = 9.0;
    alloc_byte = 0.55;
    hole_skip = 110.0;
    line_scan = 1.6;
    block_open = 300.0;
    block_assemble = 700.0;
    free_list_alloc = 7.0;
    ms_byte = 0.08;
    write_barrier = 3.0;
    gc_fixed = 120_000.0;
    gc_nursery_fixed = 40_000.0;
    mark_obj = 52.0;
    mark_edge = 9.0;
    copy_byte = 1.1;
    sweep_line = 1.1;
    sweep_cell = 2.4;
    remset_entry = 22.0;
    los_page = 350.0;
    arraylet_byte = 0.09;
    perfect_request = 600.0;
    dram_borrow = 1200.0;
  }

(** A cost accumulator.  Mutator and collector time are tracked
    separately; [total] is their sum.  [pause] isolates the cost of the
    collection currently in progress so per-GC pauses can be recorded.

    The accumulators live in a flat [float array] rather than mutable
    record fields: OCaml stores float-array elements unboxed, whereas a
    mutable [float] field in a mixed record boxes every store — and
    [charge] runs several times per allocation on the hottest path in
    the system. *)
type t = {
  weights : weights;
  acc : float array;  (* 0 = mutator_ns, 1 = gc_ns, 2 = pause_ns *)
  mutable in_gc : bool;
}

let create ?(weights = default) () : t = { weights; acc = [| 0.0; 0.0; 0.0 |]; in_gc = false }

let[@inline] charge (t : t) (ns : float) : unit =
  let acc = t.acc in
  if t.in_gc then begin
    Array.unsafe_set acc 1 (Array.unsafe_get acc 1 +. ns);
    Array.unsafe_set acc 2 (Array.unsafe_get acc 2 +. ns)
  end
  else Array.unsafe_set acc 0 (Array.unsafe_get acc 0 +. ns)

(** Charge copying [bytes] bytes at [copy_byte] each.  The product is
    formed here, so no float crosses a call that is not inlined (the dev
    profile inlines nothing across modules) and nothing is boxed. *)
let[@inline] charge_copy (t : t) ~(bytes : int) : unit =
  charge t (t.weights.copy_byte *. float_of_int bytes)

(** Enter collection context; subsequent charges count as pause time.
    The bracketing unit is one {e recorded pause}.  A stop-the-world
    collection drains every step of its cycle inside one bracket; under
    a [gc_slice] budget each slice opens and closes its own, so [end_gc]
    returns the mutator stall for that slice alone.  The charges, and
    therefore [gc_ns], are the same either way: only where the brackets
    close differs. *)
let begin_gc (t : t) : unit =
  t.in_gc <- true;
  t.acc.(2) <- 0.0

(** Leave collection context, returning the pause in ns. *)
let end_gc (t : t) : float =
  t.in_gc <- false;
  t.acc.(2)

let mutator_ns (t : t) : float = t.acc.(0)
let gc_ns (t : t) : float = t.acc.(1)
let total_ns (t : t) : float = t.acc.(0) +. t.acc.(1)
let total_ms (t : t) : float = total_ns t /. 1.0e6
