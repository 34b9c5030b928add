(** Compact fixed-size bitsets over 63-bit [int] words.

    Used for per-page failure bitmaps (one bit per 64 B PCM line: a 4 KB
    page needs 64 bits, cf. paper Sec. 3.2.1), for line-level masks in
    the failure-map generator, and — since the hot-path overhaul — for
    the packed free/failed line maps inside Immix blocks.

    The representation is an [int array] of 63-bit words.  Every scan
    (population count, next set/clear bit, run extraction, subset test)
    works a word at a time: a whole word of uninteresting bits is
    skipped in one compare, and bit positions inside an interesting word
    come from table-driven popcount/ctz rather than per-bit loops.  All
    bounds checks live in the public wrappers; the word loops underneath
    use unsafe accessors.

    Invariant: bits at positions >= [len] in the last word are always
    zero, so word-level [count]/[next_clear]/[equal] need no per-call
    masking. *)

type t = { len : int; words : int array }

let bits_per_word = 63

(* all 63 bits set: OCaml [int]s are exactly 63 bits wide on 64-bit
   platforms, so the all-ones word is -1 and [lnot]/[lsl] already
   truncate to the word width with no extra masking *)
let word_mask = -1

(* [i / 63] and [i mod 63] without hardware division: ocamlopt emits a
   real [idiv] for division by a non-power-of-two constant, which would
   dominate the one-word fast path of every index operation.  The
   multiply-shift is exact for 0 <= i < 2^30 (0x82082083 = ceil(2^37/63);
   the error term 63*0x82082083 - 2^37 = 61 first matters near 2^31, and
   the product stays clear of the 63-bit range below 2^30) — [create]
   rejects longer sets. *)
let div63 (i : int) : int = (i * 0x82082083) lsr 37

let mod63 (i : int) : int = i - (div63 i * 63)

let nwords_for (len : int) : int = div63 (len + bits_per_word - 1)

(* mask of the valid bits in the last word of a [len]-bit set *)
let tail_mask (len : int) : int =
  let r = mod63 len in
  if r = 0 then word_mask else (1 lsl r) - 1

let create (len : int) : t =
  if len < 0 || len >= 0x40000000 then invalid_arg "Bitset.create: length out of range";
  { len; words = Array.make (nwords_for len) 0 }

let length (t : t) : int = t.len

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Bitset: index out of bounds"

(* -------------------- word-level building blocks -------------------- *)

(* popcount of a 16-bit chunk, precomputed once (64 KB of bytes) *)
let popc16 : Bytes.t =
  let b = Bytes.create 65536 in
  for i = 0 to 65535 do
    let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
    Bytes.unsafe_set b i (Char.unsafe_chr (go i 0))
  done;
  b

let popcount (w : int) : int =
  Char.code (Bytes.unsafe_get popc16 (w land 0xFFFF))
  + Char.code (Bytes.unsafe_get popc16 ((w lsr 16) land 0xFFFF))
  + Char.code (Bytes.unsafe_get popc16 ((w lsr 32) land 0xFFFF))
  + Char.code (Bytes.unsafe_get popc16 (w lsr 48))

(* ctz of a 16-bit chunk (tz16[0] = 16, so chunks cascade) *)
let tz16 : Bytes.t =
  let b = Bytes.create 65536 in
  Bytes.unsafe_set b 0 (Char.unsafe_chr 16);
  for i = 1 to 65535 do
    let rec go n acc = if n land 1 = 1 then acc else go (n lsr 1) (acc + 1) in
    Bytes.unsafe_set b i (Char.unsafe_chr (go i 0))
  done;
  b

(* index of the lowest set bit of [w]; 63 for 0.  Usually one table
   load: the cascade only continues while the low chunks are zero. *)
let ctz (w : int) : int =
  let x = w land 0xFFFF in
  if x <> 0 then Char.code (Bytes.unsafe_get tz16 x)
  else
    let x = (w lsr 16) land 0xFFFF in
    if x <> 0 then 16 + Char.code (Bytes.unsafe_get tz16 x)
    else
      let x = (w lsr 32) land 0xFFFF in
      if x <> 0 then 32 + Char.code (Bytes.unsafe_get tz16 x)
      else
        let x = w lsr 48 in
        if x <> 0 then 48 + Char.code (Bytes.unsafe_get tz16 x) else 63

(* unsafe single-bit accessors: the checked public wrappers below are
   the only callers that take indices from outside this module *)
let unsafe_get (t : t) (i : int) : bool =
  Array.unsafe_get t.words (div63 i) land (1 lsl mod63 i) <> 0

let unsafe_set (t : t) (i : int) : unit =
  let w = div63 i in
  Array.unsafe_set t.words w (Array.unsafe_get t.words w lor (1 lsl mod63 i))

let unsafe_clear (t : t) (i : int) : unit =
  let w = div63 i in
  Array.unsafe_set t.words w (Array.unsafe_get t.words w land lnot (1 lsl mod63 i))

(* ------------------------- checked wrappers ------------------------- *)

let get (t : t) (i : int) : bool =
  check t i;
  unsafe_get t i

let set (t : t) (i : int) : unit =
  check t i;
  unsafe_set t i

let clear (t : t) (i : int) : unit =
  check t i;
  unsafe_clear t i

(** Number of set bits. *)
let count (t : t) : int =
  let n = ref 0 in
  for w = 0 to Array.length t.words - 1 do
    n := !n + popcount (Array.unsafe_get t.words w)
  done;
  !n

let copy (t : t) : t = { len = t.len; words = Array.copy t.words }

(** [blit ~src ~dst] overwrites [dst] with [src] (same length
    required): a word copy, with no allocation. *)
let blit ~(src : t) ~(dst : t) : unit =
  if src.len <> dst.len then invalid_arg "Bitset.blit: length mismatch";
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

(** [extend t len] is a fresh set of [len >= length t] bits holding
    [t]'s bits, the positions past [length t] clear. *)
let extend (t : t) (len : int) : t =
  if len < t.len then invalid_arg "Bitset.extend: shorter than the set";
  let d = create len in
  Array.blit t.words 0 d.words 0 (Array.length t.words);
  d

let fill (t : t) (v : bool) : unit =
  let nw = Array.length t.words in
  Array.fill t.words 0 nw (if v then word_mask else 0);
  (* keep the trailing bits beyond [len] zero so [count] stays exact *)
  if v && nw > 0 then t.words.(nw - 1) <- t.words.(nw - 1) land tail_mask t.len

(** [blit_complement ~src ~dst] sets [dst] to the bitwise complement of
    [src] (same length required): one word operation per 63 bits.  The
    packed block line maps use this to rebuild the free map from the
    failed map ahead of a full collection. *)
let blit_complement ~(src : t) ~(dst : t) : unit =
  if src.len <> dst.len then invalid_arg "Bitset.blit_complement: length mismatch";
  let nw = Array.length src.words in
  for w = 0 to nw - 1 do
    Array.unsafe_set dst.words w (lnot (Array.unsafe_get src.words w) land word_mask)
  done;
  if nw > 0 then dst.words.(nw - 1) <- dst.words.(nw - 1) land tail_mask dst.len

(** [iter_set t f] calls [f i] for every set bit index, ascending.  Words
    with no set bits cost one load; set bits are extracted by ctz. *)
let iter_set (t : t) (f : int -> unit) : unit =
  for wi = 0 to Array.length t.words - 1 do
    let w = ref (Array.unsafe_get t.words wi) in
    let base = wi * bits_per_word in
    while !w <> 0 do
      f (base + ctz !w);
      w := !w land (!w - 1)
    done
  done

(** [iter_set_from t ~from ~count f] calls [f i] for the first [count]
    set bits at or after [from], ascending, and returns the index just
    past the last one visited ([from] when [count <= 0]): a resumable
    walk for work done a budget at a time.  Like [iter_set], it reads
    each word once and skips a clear word in one compare.  Raises
    [Invalid_argument] when fewer than [count] set bits remain. *)
let iter_set_from (t : t) ~(from : int) ~(count : int) (f : int -> unit) : int =
  if count <= 0 then from
  else begin
    let short () = invalid_arg "Bitset.iter_set_from: fewer set bits than count" in
    let from = if from < 0 then 0 else from in
    if from >= t.len then short ();
    let words = t.words in
    let nw = Array.length words in
    let wi = ref (div63 from) in
    (* mask off bits below [from] in its word *)
    let w = ref (Array.unsafe_get words !wi land lnot ((1 lsl mod63 from) - 1)) in
    let left = ref count and next = ref from in
    while !left > 0 do
      while !w = 0 do
        incr wi;
        if !wi >= nw then short ();
        w := Array.unsafe_get words !wi
      done;
      let i = (!wi * bits_per_word) + ctz !w in
      f i;
      w := !w land (!w - 1);
      next := i + 1;
      decr left
    done;
    !next
  end

(** [group_mask t ~shift] collapses the set into groups of [2^shift]
    consecutive bit positions, returning the bitmask of groups that
    contain at least one set bit.  Requires [length t <= 63 * 2^shift]
    so the mask fits one word.  The page stock uses this to count
    logical lines poisoned by any of their PCM lines without a closure
    call per failure. *)
let group_mask (t : t) ~(shift : int) : int =
  if shift < 1 || t.len > bits_per_word lsl shift then
    invalid_arg "Bitset.group_mask: groups do not fit one word";
  let m = ref 0 in
  for wi = 0 to Array.length t.words - 1 do
    let w = ref (Array.unsafe_get t.words wi) in
    let base = wi * bits_per_word in
    while !w <> 0 do
      m := !m lor (1 lsl ((base + ctz !w) lsr shift));
      w := !w land (!w - 1)
    done
  done;
  !m

(** [subset a b] is true when every bit set in [a] is also set in [b].
    The OS swap policy (paper Sec. 3.2.3) uses this to test whether a
    destination page's failures are a subset of the source page's.
    Early-exits on the first violating word. *)
let subset (a : t) (b : t) : bool =
  if a.len <> b.len then invalid_arg "Bitset.subset: length mismatch";
  let nw = Array.length a.words in
  let rec go w =
    w >= nw
    || (Array.unsafe_get a.words w land lnot (Array.unsafe_get b.words w) = 0 && go (w + 1))
  in
  go 0

let equal (a : t) (b : t) : bool =
  a.len = b.len
  &&
  let nw = Array.length a.words in
  let rec go w =
    w >= nw || (Array.unsafe_get a.words w = Array.unsafe_get b.words w && go (w + 1))
  in
  go 0

(** First index >= [from] whose bit is set; [None] if none.  Whole clear
    words are skipped with one compare each. *)
let next_set (t : t) (from : int) : int option =
  let from = max 0 from in
  if from >= t.len then None
  else begin
    let nw = Array.length t.words in
    let wi0 = div63 from in
    (* mask off bits below [from] in its word *)
    let first = Array.unsafe_get t.words wi0 land lnot ((1 lsl mod63 from) - 1) in
    let rec go wi w =
      if w <> 0 then Some ((wi * bits_per_word) + ctz w)
      else if wi + 1 >= nw then None
      else go (wi + 1) (Array.unsafe_get t.words (wi + 1))
    in
    go wi0 first
  end

(** First index >= [from] whose bit is clear; [None] if none.  Works on
    complemented words, so a fully set word is skipped in one compare. *)
let next_clear (t : t) (from : int) : int option =
  let from = max 0 from in
  if from >= t.len then None
  else begin
    let nw = Array.length t.words in
    let wi0 = div63 from in
    let inv wi = lnot (Array.unsafe_get t.words wi) land word_mask in
    let first = inv wi0 land lnot ((1 lsl mod63 from) - 1) in
    let rec go wi w =
      if w <> 0 then
        let i = (wi * bits_per_word) + ctz w in
        if i < t.len then Some i else None
      else if wi + 1 >= nw then None
      else go (wi + 1) (inv (wi + 1))
    in
    go wi0 first
  end

(** [next_set_run t from] is the next maximal run of set bits starting
    at or after [from], as [Some (s, e)] with the run spanning
    [s .. e - 1]; [None] when no set bit remains.  One [next_set] to
    find the run and one [next_clear] to end it — both word-level. *)
let next_set_run (t : t) (from : int) : (int * int) option =
  match next_set t from with
  | None -> None
  | Some s -> (
      match next_clear t (s + 1) with
      | None -> Some (s, t.len)
      | Some e -> Some (s, e))

(* positions in [w] that begin [n] consecutive set bits (n <= 63),
   by logarithmic shift-doubling: [y_k land (y_k lsr s)] marks positions
   starting [k + s] consecutive ones *)
let rec run_starts_from (y : int) (k : int) (n : int) : int =
  if k >= n || y = 0 then y
  else
    let s = if k < n - k then k else n - k in
    run_starts_from (y land (y lsr s)) (k + s) n

let run_starts (w : int) (n : int) : int = run_starts_from w 1 n

(* count of leading (high-order) set bits of a 63-bit word *)
let rec clo_hi (c : int) (h : int) (step : int) : int =
  if step = 0 then h
  else if c lsr (h + step) <> 0 then clo_hi c (h + step) (step lsr 1)
  else clo_hi c h (step lsr 1)

let clo (w : int) : int =
  let c = lnot w land word_mask in
  if c = 0 then bits_per_word else bits_per_word - 1 - clo_hi c 0 32

(** [find_set_run t ~from ~min_len] is the first maximal run of set bits
    [s .. e - 1] with [s >= from] (a run straddling [from] is truncated
    to start there) and [e - s >= min_len]; [None] when no such run
    remains.  This is the hole search underneath the Immix bump
    allocator: the whole scan runs word-at-a-time — a word whose
    internal runs are all too short is rejected with a few shift-ands
    (no per-run work), runs crossing word boundaries are stitched by a
    carried (start, length) pair, and nothing is allocated until the
    final result. *)
(* The scan loop of [find_set_run], as top-level tail recursion with
   explicit parameters returning a packed int: this compiler does not
   unbox local [ref]s or avoid closure allocation for capturing local
   functions, and per-call allocations would cost more than the scan
   itself.  The result is [(s lsl 30) lor e] (-1 when no run) — [create]
   caps lengths below 2^30, so both fields fit.  [rs]/[rl] carry a run
   of set bits continuing across a word boundary. *)
let rec fsr_word words nw min_len len wi rs rl : int =
  if wi >= nw then if rl >= min_len then (rs lsl 30) lor len else -1
  else begin
    let w = Array.unsafe_get words wi in
    let base = wi * bits_per_word in
    if rl > 0 && w = word_mask then
      (* the carried run continues through the whole word *)
      fsr_word words nw min_len len (wi + 1) rs (rl + bits_per_word)
    else if rl > 0 then begin
      (* the carried run ends at this word's first clear bit *)
      let k = ctz (lnot w land word_mask) in
      if rl + k >= min_len then (rs lsl 30) lor (base + k)
      else
        let wr = if k > 0 then w land lnot ((1 lsl k) - 1) else w in
        fsr_inword words nw min_len len wi base wr
    end
    else fsr_inword words nw min_len len wi base w
  end

and fsr_inword words nw min_len len wi base wr : int =
  let m =
    (* run-start positions; the generic shift-doubling is specialised
       for the two dominant cases (single line, two lines) *)
    if min_len = 1 then wr
    else if min_len = 2 then wr land (wr lsr 1)
    else if min_len > bits_per_word then 0
    else run_starts wr min_len
  in
  if m <> 0 then begin
    (* lowest adequate start; its maximal run cannot begin earlier (the
       bit below it is clear or already consumed) *)
    let p = ctz m in
    let ones = ctz (lnot (wr lsr p) land word_mask) in
    if p + ones >= bits_per_word then
      (* the run reaches the top of the word: carry it *)
      fsr_word words nw min_len len (wi + 1) (base + p) (bits_per_word - p)
    else ((base + p) lsl 30) lor (base + p + ones)
  end
  else if wr >= 0 then
    (* bit 62 (the sign bit) is clear: no leading ones, nothing carries *)
    fsr_word words nw min_len len (wi + 1) (-1) 0
  else begin
    (* only the word's leading ones can seed a run that continues into
       the next word *)
    let lead = clo wr in
    fsr_word words nw min_len len (wi + 1) (base + (bits_per_word - lead)) lead
  end

(** Allocation-free variant of [find_set_run] for hot paths: the result
    is [(s lsl 30) lor e], or -1 when no adequate run remains. *)
let find_set_run_enc (t : t) ~(from : int) ~(min_len : int) : int =
  if min_len <= 0 then invalid_arg "Bitset.find_set_run: min_len must be positive";
  let from = if from < 0 then 0 else from in
  if from >= t.len then -1
  else begin
    let words = t.words in
    let wi0 = div63 from in
    let base0 = wi0 * bits_per_word in
    (* mask bits below [from]; later words enter the loop unmasked *)
    let w0 = Array.unsafe_get words wi0 land lnot ((1 lsl (from - base0)) - 1) in
    fsr_inword words (Array.length words) min_len t.len wi0 base0 w0
  end

let find_set_run (t : t) ~(from : int) ~(min_len : int) : (int * int) option =
  let enc = find_set_run_enc t ~from ~min_len in
  if enc < 0 then None else Some (enc lsr 30, enc land 0x3FFFFFFF)

(** Number of maximal runs of set bits — word-level: a run starts at
    every set bit whose predecessor (previous bit, carrying across word
    boundaries) is clear. *)
let count_runs (t : t) : int =
  let runs = ref 0 in
  let carry = ref 0 in
  (* the last bit of the previous word *)
  for wi = 0 to Array.length t.words - 1 do
    let w = Array.unsafe_get t.words wi in
    let shifted = ((w lsl 1) lor !carry) land word_mask in
    runs := !runs + popcount (w land lnot shifted);
    carry := (w lsr (bits_per_word - 1)) land 1
  done;
  !runs

(** [sub t ~pos ~len] extracts bits [pos .. pos + len - 1] into a fresh
    bitset.  Word-level: each destination word gathers from at most two
    source words, so slicing a 64-bit page bitmap out of a device-sized
    failure map costs two loads instead of 64 per-bit get/set pairs. *)
let sub (t : t) ~(pos : int) ~(len : int) : t =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Bitset.sub: range out of bounds";
  let dst = create len in
  let src = t.words in
  let nws = Array.length src in
  let ndw = Array.length dst.words in
  let wi = div63 pos in
  let off = mod63 pos in
  for j = 0 to ndw - 1 do
    let w = wi + j in
    let lo = if w < nws then Array.unsafe_get src w lsr off else 0 in
    let hi =
      if off = 0 || w + 1 >= nws then 0
      else (Array.unsafe_get src (w + 1) lsl (bits_per_word - off)) land word_mask
    in
    Array.unsafe_set dst.words j (lo lor hi)
  done;
  if ndw > 0 then dst.words.(ndw - 1) <- dst.words.(ndw - 1) land tail_mask len;
  dst

(** [longest_run t] is the length of the longest maximal run of set
    bits (0 when no bit is set).  All-ones and all-zero words cost one
    compare each; runs crossing word boundaries are stitched by a
    carried length.  The fused sweep uses this to recompute each
    block's exact hole bound in one pass over the free map. *)
let longest_run (t : t) : int =
  let words = t.words in
  let best = ref 0 in
  let carry = ref 0 in
  (* length of the set-run ending at the top of the previous word *)
  for wi = 0 to Array.length words - 1 do
    let w = Array.unsafe_get words wi in
    if w = word_mask then carry := !carry + bits_per_word
    else begin
      (* the word's low ones extend the carried run, which ends here *)
      let low = ctz (lnot w land word_mask) in
      let ext = !carry + low in
      if ext > !best then best := ext;
      (* interior runs; one that reaches bit 62 seeds the next carry *)
      let x = ref (w lsr low) in
      let rem = ref (bits_per_word - low) in
      let nextcarry = ref 0 in
      while !x <> 0 do
        let z = ctz !x in
        x := !x lsr z;
        rem := !rem - z;
        let ones = ctz (lnot !x land word_mask) in
        if ones >= !rem then nextcarry := ones else if ones > !best then best := ones;
        x := !x lsr ones;
        rem := !rem - ones
      done;
      carry := !nextcarry
    end
  done;
  if !carry > !best then best := !carry;
  !best

let to_bool_array (t : t) : bool array = Array.init t.len (get t)

let of_bool_array (a : bool array) : t =
  let t = create (Array.length a) in
  Array.iteri (fun i v -> if v then set t i) a;
  t

let pp (ppf : Format.formatter) (t : t) : unit =
  for i = 0 to t.len - 1 do
    Format.pp_print_char ppf (if get t i then '1' else '.')
  done
