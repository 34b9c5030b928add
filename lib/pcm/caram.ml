(** CARAM-style content-aware line store.

    A small [ways]-way set-associative cache of line {e contents},
    keyed by fingerprint, sitting in front of the PCM cells.  A write
    whose exact content is already present anywhere in the matching
    set is {e deduplicated}: the logical line is bound to the cached
    entry and the PCM cells never see the write.  A write whose 64
    bytes are a single repeated byte is {e compressed}: the pattern
    byte is recorded in the line's metadata and again no cell is
    written.  Every absorbed write costs one metadata write (counted,
    not charged to wear — metadata lives in DRAM/NVM controller
    state).  Everything else falls through to the normal
    translate→wear→arena path, which remains the authoritative store
    for unbound lines.

    Reads of a bound line are served from the cache (bit-exact
    round-trip); reads of unbound lines fall through to the arena.
    Entries are reference-counted by the logical lines bound to them
    and only evicted at zero references, so a bound line can always be
    served.  The entry's content copy is authoritative for its
    referents even after the original (master) line is overwritten in
    PCM. *)

(* A line's binding is one int: [unbound], a slot index [>= 0] into
   the slot arrays (deduplicated against that slot), or
   [pattern_binding code] (a line compressed to the one byte
   [Char.chr code] repeated). *)
let unbound = -1

let pattern_binding (code : int) : int = -2 - code

let pattern_of_binding (b : int) : char = Char.unsafe_chr (-2 - b)

let line_bytes = Geometry.line_bytes

(* Way [w] of set [s] is slot [s * ways + w], an index into [fp] and
   [refs]; slot [i]'s content is the [line_bytes] bytes of [data] from
   [i * line_bytes].  A set probe reads the two int arrays and touches
   content only on a fingerprint match. *)
type t = {
  ways : int;
  sets : int;
  fp : int array;  (** slot -> fingerprint, or [-1] for an invalid slot *)
  refs : int array;  (** slot -> bound logical lines pointing here *)
  data : Bytes.t;
      (** every slot's content, [line_bytes] each: authoritative for its
          bound lines; meaningful only while the slot is valid *)
  bound : int array;  (** logical line -> current binding *)
  mutable dedup_hits : int;
  mutable compressed : int;
  mutable meta_writes : int;
}

type stats = {
  s_dedup_hits : int;
  s_compressed : int;
  s_meta_writes : int;
}

let create ~(ways : int) ~(nlines : int) () : t =
  if ways <= 0 then invalid_arg "Caram.create: ways must be positive";
  (* a quarter of the device's lines worth of fingerprint slots: big
     enough to catch recurring content, small enough to force churn *)
  let sets = max 1 (nlines / (ways * 4)) in
  let slots = sets * ways in
  {
    ways;
    sets;
    fp = Array.make slots (-1);
    refs = Array.make slots 0;
    (* left uninitialized: a slot's bytes are read only once an install
       has written them *)
    data = Bytes.create (slots * line_bytes);
    bound = Array.make nlines unbound;
    dedup_hits = 0;
    compressed = 0;
    meta_writes = 0;
  }

(* FNV-1a folded into a non-negative OCaml int (offset basis truncated
   to the native 63-bit int range).  The hash runs on an unboxed
   [Int64]; its low 63 bits are those of the same fold in native ints,
   so the result equals the byte-at-a-time native-int FNV-1a. *)
let fingerprint (b : Bytes.t) : int =
  let h = ref 0x3bf29ce484222325L in
  for i = 0 to Bytes.length b - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i)))) 0x100000001b3L
  done;
  Int64.to_int !h land max_int

(* the repeated byte of an all-one-byte payload, or -1; compares a word
   at a time, then the bytes after the last whole word *)
let pattern_code (b : Bytes.t) : int =
  let n = Bytes.length b in
  if n = 0 then -1
  else begin
    let c = Char.code (Bytes.unsafe_get b 0) in
    let word = Int64.mul (Int64.of_int c) 0x0101010101010101L in
    let i = ref 0 in
    while !i + 8 <= n && Bytes.get_int64_ne b !i = word do i := !i + 8 done;
    while !i < n && Char.code (Bytes.unsafe_get b !i) = c do incr i done;
    if !i = n then c else -1
  end

(* slot [i] holds exactly the one-line [payload] *)
let slot_holds (t : t) (i : int) (payload : Bytes.t) : bool =
  let off = i * line_bytes in
  let k = ref 0 in
  while !k < line_bytes && Bytes.get_int64_ne t.data (off + !k) = Bytes.get_int64_ne payload !k do
    k := !k + 8
  done;
  !k >= line_bytes

let release (t : t) (logical : int) : unit =
  let b = t.bound.(logical) in
  if b >= 0 then t.refs.(b) <- t.refs.(b) - 1;
  t.bound.(logical) <- unbound

type write_outcome =
  | Absorbed  (** dedup or compression: the PCM cells must not be written *)
  | Store  (** no content match: proceed down the normal write path *)

(** [write t logical payload] consults the content store before the
    cell write of the one-line [payload].  On [Absorbed] the caller must
    skip the wear/arena path entirely; on [Store] it proceeds normally
    (the payload may have been installed as a fresh fingerprint entry
    for future dedup). *)
let write (t : t) (logical : int) (payload : Bytes.t) : write_outcome =
  let code = pattern_code payload in
  if code >= 0 then begin
    release t logical;
    t.bound.(logical) <- pattern_binding code;
    t.compressed <- t.compressed + 1;
    t.meta_writes <- t.meta_writes + 1;
    Absorbed
  end
  else begin
    let fp = fingerprint payload in
    let base = fp mod t.sets * t.ways in
    (* the lowest way holding this content *)
    let hit = ref (-1) and w = ref 0 in
    while !hit < 0 && !w < t.ways do
      let i = base + !w in
      if t.fp.(i) = fp && slot_holds t i payload then hit := i;
      incr w
    done;
    let i = !hit in
    if i >= 0 then begin
      (* a rewrite of identical content keeps its binding *)
      if t.bound.(logical) <> i then begin
        release t logical;
        t.refs.(i) <- t.refs.(i) + 1;
        t.bound.(logical) <- i
      end;
      t.dedup_hits <- t.dedup_hits + 1;
      t.meta_writes <- t.meta_writes + 1;
      Absorbed
    end
    else begin
      release t logical;
      (* install into the lowest unreferenced way so future identical
         writes dedup against this (master) copy *)
      let victim = ref (-1) and w = ref 0 in
      while !victim < 0 && !w < t.ways do
        if t.refs.(base + !w) = 0 then victim := base + !w;
        incr w
      done;
      let v = !victim in
      if v >= 0 then begin
        t.fp.(v) <- fp;
        Bytes.blit payload 0 t.data (v * line_bytes) line_bytes
      end;
      Store
    end
  end

(** [read t logical] is the bound content of [logical], if any; [None]
    means the arena holds the line. *)
let read (t : t) (logical : int) : Bytes.t option =
  let b = t.bound.(logical) in
  if b = unbound then None
  else if b >= 0 then Some (Bytes.sub t.data (b * line_bytes) line_bytes)
  else Some (Bytes.make line_bytes (pattern_of_binding b))

(** All current bindings as [(logical, content)], sorted by logical
    line — the write-through list for disabling caram mid-run.  Leaves
    the store empty. *)
let flush (t : t) : (int * Bytes.t) list =
  let all = ref [] in
  for logical = Array.length t.bound - 1 downto 0 do
    match read t logical with
    | None -> ()
    | Some data -> all := (logical, data) :: !all
  done;
  Array.fill t.bound 0 (Array.length t.bound) unbound;
  Array.fill t.fp 0 (Array.length t.fp) (-1);
  Array.fill t.refs 0 (Array.length t.refs) 0;
  !all

let stats (t : t) : stats =
  {
    s_dedup_hits = t.dedup_hits;
    s_compressed = t.compressed;
    s_meta_writes = t.meta_writes;
  }

(** The number of slots ([sets * ways]). *)
let slots (t : t) : int = Array.length t.fp

(** Slot [i] holds content some line may bind to. *)
let slot_valid (t : t) (i : int) : bool = t.fp.(i) >= 0

(** The logical lines bound to slot [i]. *)
let slot_refs (t : t) (i : int) : int = t.refs.(i)

(** A copy of slot [i]'s content (meaningful while the slot is valid). *)
let slot_content (t : t) (i : int) : Bytes.t = Bytes.sub t.data (i * line_bytes) line_bytes

(** Internal-consistency errors, for the paranoid verifier: recount
    references from the binding map and compare against each slot's
    refcount; every slot binding must name a valid slot. *)
let check (t : t) : string list =
  let errs = ref [] in
  let counted = Array.make (slots t) 0 in
  Array.iteri
    (fun logical b ->
      if b >= slots t || b < pattern_binding 255 then
        errs := Printf.sprintf "caram: line %d bound to slot %d out of range" logical b :: !errs
      else if b >= 0 then begin
        if not (slot_valid t b) then
          errs := Printf.sprintf "caram: line %d bound to invalid slot %d" logical b :: !errs;
        counted.(b) <- counted.(b) + 1
      end)
    t.bound;
  Array.iteri
    (fun i n ->
      if t.refs.(i) <> n then
        errs := Printf.sprintf "caram: slot %d refcount %d but %d bound lines" i t.refs.(i) n :: !errs)
    counted;
  List.rev !errs

(** Corrupt a refcount (tests only: the verifier must catch it). *)
let unsafe_poke (t : t) : unit =
  if slots t > 0 then begin
    if t.fp.(0) < 0 then t.fp.(0) <- 0;
    t.refs.(0) <- t.refs.(0) + 1
  end
