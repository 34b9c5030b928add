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

type entry = {
  mutable fp : int;
  mutable data : Bytes.t;  (** authoritative content for [refs] bound lines *)
  mutable refs : int;  (** bound logical lines pointing here *)
  mutable valid : bool;
}

type binding =
  | Slot of int  (** index into [table]: deduplicated against that entry *)
  | Pattern of char  (** single-byte-pattern compressed line *)

type t = {
  ways : int;
  sets : int;
  table : entry array;  (** [sets * ways] entries, set-major *)
  bound : (int, binding) Hashtbl.t;  (** logical line -> current binding *)
  mutable dedup_hits : int;
  mutable compressed : int;
  mutable installs : int;
  mutable evictions : int;
  mutable meta_writes : int;
}

type stats = {
  s_dedup_hits : int;
  s_compressed : int;
  s_installs : int;
  s_evictions : int;
  s_meta_writes : int;
  s_bound : int;
}

let create ~(ways : int) ~(nlines : int) () : t =
  if ways <= 0 then invalid_arg "Caram.create: ways must be positive";
  (* a quarter of the device's lines worth of fingerprint slots: big
     enough to catch recurring content, small enough to force churn *)
  let sets = max 1 (nlines / (ways * 4)) in
  {
    ways;
    sets;
    table =
      Array.init (sets * ways) (fun _ ->
          { fp = 0; data = Bytes.empty; refs = 0; valid = false });
    bound = Hashtbl.create 64;
    dedup_hits = 0;
    compressed = 0;
    installs = 0;
    evictions = 0;
    meta_writes = 0;
  }

(* FNV-1a folded into a non-negative OCaml int (offset basis truncated
   to the native 63-bit int range) *)
let fingerprint (b : Bytes.t) : int =
  let h = ref 0x3bf29ce484222325 in
  for i = 0 to Bytes.length b - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x100000001b3
  done;
  !h land max_int

let pattern_of (b : Bytes.t) : char option =
  let n = Bytes.length b in
  if n = 0 then None
  else begin
    let c = Bytes.unsafe_get b 0 in
    let i = ref 1 in
    while !i < n && Bytes.unsafe_get b !i = c do incr i done;
    if !i = n then Some c else None
  end

let release (t : t) (logical : int) : unit =
  match Hashtbl.find_opt t.bound logical with
  | None -> ()
  | Some (Pattern _) -> Hashtbl.remove t.bound logical
  | Some (Slot i) ->
      t.table.(i).refs <- t.table.(i).refs - 1;
      Hashtbl.remove t.bound logical

type write_outcome =
  | Absorbed  (** dedup or compression: the PCM cells must not be written *)
  | Store  (** no content match: proceed down the normal write path *)

(** [write t logical payload] consults the content store before the
    cell write.  On [Absorbed] the caller must skip the wear/arena
    path entirely; on [Store] it proceeds normally (the payload may
    have been installed as a fresh fingerprint entry for future
    dedup). *)
let write (t : t) (logical : int) (payload : Bytes.t) : write_outcome =
  match pattern_of payload with
  | Some c ->
      release t logical;
      Hashtbl.replace t.bound logical (Pattern c);
      t.compressed <- t.compressed + 1;
      t.meta_writes <- t.meta_writes + 1;
      Absorbed
  | None -> (
      let fp = fingerprint payload in
      let set = fp mod t.sets in
      let base = set * t.ways in
      let hit = ref (-1) in
      for w = 0 to t.ways - 1 do
        let e = t.table.(base + w) in
        if !hit < 0 && e.valid && e.fp = fp && Bytes.equal e.data payload then
          hit := base + w
      done;
      match !hit with
      | i when i >= 0 ->
          (match Hashtbl.find_opt t.bound logical with
          | Some (Slot j) when j = i -> ()  (* rewrite of identical content *)
          | _ ->
              release t logical;
              t.table.(i).refs <- t.table.(i).refs + 1;
              Hashtbl.replace t.bound logical (Slot i));
          t.dedup_hits <- t.dedup_hits + 1;
          t.meta_writes <- t.meta_writes + 1;
          Absorbed
      | _ ->
          release t logical;
          (* install into an unreferenced way so future identical
             writes dedup against this (master) copy *)
          let victim = ref (-1) in
          for w = t.ways - 1 downto 0 do
            let e = t.table.(base + w) in
            if e.refs = 0 then victim := base + w
          done;
          if !victim >= 0 then begin
            let e = t.table.(!victim) in
            if e.valid then t.evictions <- t.evictions + 1;
            e.fp <- fp;
            e.data <- Bytes.copy payload;
            e.refs <- 0;
            e.valid <- true;
            t.installs <- t.installs + 1
          end;
          Store)

(** [read t logical] is the bound content of [logical], if any; [None]
    means the arena holds the line. *)
let read (t : t) (logical : int) ~(line_bytes : int) : Bytes.t option =
  match Hashtbl.find_opt t.bound logical with
  | None -> None
  | Some (Pattern c) -> Some (Bytes.make line_bytes c)
  | Some (Slot i) -> Some (Bytes.copy t.table.(i).data)

(** All current bindings as [(logical, content)], sorted by logical
    line — the write-through list for disabling caram mid-run. *)
let flush (t : t) ~(line_bytes : int) : (int * Bytes.t) list =
  let all =
    Hashtbl.fold
      (fun logical b acc ->
        let data =
          match b with
          | Pattern c -> Bytes.make line_bytes c
          | Slot i -> Bytes.copy t.table.(i).data
        in
        (logical, data) :: acc)
      t.bound []
  in
  Hashtbl.reset t.bound;
  Array.iter
    (fun e ->
      e.refs <- 0;
      e.valid <- false;
      e.data <- Bytes.empty)
    t.table;
  List.sort (fun (a, _) (b, _) -> compare a b) all

let stats (t : t) : stats =
  {
    s_dedup_hits = t.dedup_hits;
    s_compressed = t.compressed;
    s_installs = t.installs;
    s_evictions = t.evictions;
    s_meta_writes = t.meta_writes;
    s_bound = Hashtbl.length t.bound;
  }

(** Internal-consistency errors, for the paranoid verifier: recount
    references from the binding map and compare against each entry's
    refcount; every [Slot] binding must name a valid entry. *)
let check (t : t) : string list =
  let errs = ref [] in
  let counted = Array.make (Array.length t.table) 0 in
  Hashtbl.iter
    (fun logical b ->
      match b with
      | Pattern _ -> ()
      | Slot i ->
          if i < 0 || i >= Array.length t.table then
            errs := Printf.sprintf "caram: line %d bound to slot %d out of range" logical i :: !errs
          else begin
            if not t.table.(i).valid then
              errs := Printf.sprintf "caram: line %d bound to invalid slot %d" logical i :: !errs;
            counted.(i) <- counted.(i) + 1
          end)
    t.bound;
  Array.iteri
    (fun i n ->
      if t.table.(i).refs <> n then
        errs :=
          Printf.sprintf "caram: slot %d refcount %d but %d bound lines" i t.table.(i).refs n
          :: !errs)
    counted;
  List.rev !errs

(** Corrupt a refcount (tests only: the verifier must catch it). *)
let unsafe_poke (t : t) : unit =
  if Array.length t.table > 0 then begin
    let e = t.table.(0) in
    e.valid <- true;
    e.refs <- e.refs + 1
  end
