(** Hardware failure clustering via per-region redirection maps
    (paper Sec. 3.1.2, Fig. 1).

    A region is one or more pages.  When its first line fails, the
    hardware installs a redirection map (one entry per line, log2(n) bits
    each, plus a boundary pointer) in fixed metadata lines at the cluster
    end.  On every subsequent failure it swaps the failed line's logical
    offset with the offset at the boundary and advances the boundary, so
    the logical addresses of failed lines form a contiguous cluster at one
    end of the region.  Even-indexed regions cluster at the top (offset 0
    upward), odd-indexed regions at the bottom, maximizing contiguous
    usable space across adjacent regions (Fig. 1(e)); multi-page regions
    concentrate all failures into one page, leaving the other logically
    perfect while fewer than half the lines have failed (Fig. 1(f)). *)

type direction = Top | Bottom

type t = {
  nlines : int;
  direction : direction;
  meta_lines : int;  (** metadata lines sacrificed when the map is installed *)
  mutable installed : bool;
  map : int array;  (** logical offset -> physical line; a permutation *)
  inverse : int array;  (** physical line -> logical offset *)
  phys_dead : bool array;  (** physical lines failed or holding metadata *)
  mutable failed_count : int;  (** physical data lines failed (excl. metadata) *)
}

let create ?(region_pages = Geometry.default_region_pages) ~(region_index : int) () : t =
  let nlines = Geometry.lines_per_region ~region_pages in
  {
    nlines;
    direction = (if region_index mod 2 = 0 then Top else Bottom);
    meta_lines = Geometry.redirection_meta_lines ~region_pages;
    installed = false;
    map = Array.init nlines Fun.id;
    inverse = Array.init nlines Fun.id;
    phys_dead = Array.make nlines false;
    failed_count = 0;
  }

let nlines (t : t) : int = t.nlines

let is_installed (t : t) : bool = t.installed

let failed_count (t : t) : int = t.failed_count

(** Logical lines unusable by software: failures plus (once installed)
    the metadata lines. *)
let unusable_count (t : t) : int =
  t.failed_count + if t.installed then t.meta_lines else 0

(** Translate a logical line offset to the physical line it addresses.
    In the no-failure common case this is the identity and costs a single
    memory access; with a map installed, real hardware needs up to three
    accesses, mitigated by caching recent maps (Sec. 3.1.2). *)
let translate (t : t) (logical : int) : int =
  if logical < 0 || logical >= t.nlines then invalid_arg "Redirect.translate: offset out of range";
  t.map.(logical)

(** Logical offset currently mapped to physical line [physical] — the
    exact inverse of {!translate}, maintained incrementally. *)
let inverse (t : t) (physical : int) : int =
  if physical < 0 || physical >= t.nlines then invalid_arg "Redirect.inverse: line out of range";
  t.inverse.(physical)

let swap_logical (t : t) (a : int) (b : int) : unit =
  if a <> b then begin
    let pa = t.map.(a) and pb = t.map.(b) in
    t.map.(a) <- pb;
    t.map.(b) <- pa;
    t.inverse.(pa) <- b;
    t.inverse.(pb) <- a
  end

(* Logical slot that the next failure should occupy: just past the current
   cluster (failures + metadata) at the chosen end. *)
let next_cluster_slot (t : t) : int =
  let k = unusable_count t in
  match t.direction with Top -> k | Bottom -> t.nlines - 1 - k

(** [record_failure t ~physical] tells the clustering hardware that
    physical line [physical] has permanently failed.  Installs the
    redirection map on the first failure.  Returns the logical offsets
    that became unusable as a result — the metadata lines (first failure
    only) followed by the clustered slot of the failure itself; the OS
    publishes exactly these offsets in its failure map.  Reporting an
    already-dead physical line is a no-op returning []. *)
let record_failure (t : t) ~(physical : int) : int list =
  if physical < 0 || physical >= t.nlines then
    invalid_arg "Redirect.record_failure: line out of range";
  if t.phys_dead.(physical) then []
  else begin
    let newly_unusable = ref [] in
    if not t.installed then begin
      (* The paper: "the memory module first places a fake failure at the
         location in which it intends to install the redirection map".
         The metadata occupies physically fixed lines at the cluster end;
         at install time the map is still the identity, so the logical
         slots coincide with the physical lines.  Failures within the map
         itself are absorbed by ECC and never reported. *)
      t.installed <- true;
      for i = 0 to t.meta_lines - 1 do
        let slot = match t.direction with Top -> i | Bottom -> t.nlines - 1 - i in
        t.phys_dead.(t.map.(slot)) <- true;
        newly_unusable := slot :: !newly_unusable
      done
    end;
    if not t.phys_dead.(physical) then begin
      let logical = t.inverse.(physical) in
      let slot = next_cluster_slot t in
      if slot >= 0 && slot < t.nlines then begin
        swap_logical t logical slot;
        t.phys_dead.(physical) <- true;
        t.failed_count <- t.failed_count + 1;
        newly_unusable := slot :: !newly_unusable
      end
      else begin
        (* region exhausted: every line already unusable *)
        t.phys_dead.(physical) <- true;
        t.failed_count <- t.failed_count + 1;
        newly_unusable := logical :: !newly_unusable
      end
    end;
    List.rev !newly_unusable
  end

(** The set of unusable logical offsets (metadata + clustered failures),
    ascending.  With clustering working correctly this is always a
    contiguous prefix (Top) or suffix (Bottom) of the region. *)
let unusable_logical (t : t) : int list =
  let k = unusable_count t in
  match t.direction with
  | Top -> List.init k Fun.id
  | Bottom -> List.init k (fun i -> t.nlines - k + i)

(** Check the permutation invariant (exposed for property tests). *)
let is_permutation (t : t) : bool =
  let seen = Array.make t.nlines false in
  let ok = ref true in
  Array.iter
    (fun p -> if p < 0 || p >= t.nlines || seen.(p) then ok := false else seen.(p) <- true)
    t.map;
  !ok
  && Array.for_all (fun l -> l >= 0 && l < t.nlines) t.inverse
  && Array.for_all Fun.id (Array.init t.nlines (fun l -> t.inverse.(t.map.(l)) = l))
