(** A whole PCM module: an array of pages of wearable lines, the write
    path with failure detection, the failure buffer, and the address
    translation below the physical address the cache hierarchy issues
    (paper Sec. 3.1; DESIGN.md §11).

    Reads and writes address *logical* line indices.  A logical line
    goes through the optional wear leveler ({!Wear_level}, a
    controller-side permutation) to a {e slot}, and the slot through its
    region's failure-clustering map ({!Redirect}, inside the module) to
    a physical line.  When a line wears out, the failure goes back up
    the same way: the clustering map names the slots that became
    unusable, and the leveler names the logical lines the OS must
    publish.  Data payloads are stored per line so the failure-buffer
    forwarding and OS copy-out paths are real, not mocked. *)

open Holes_stdx
module Trace = Holes_obs.Trace

type config = {
  pages : int;
  wear : Wear.params;
  clustering : int option;  (** region size in pages; [None] disables clustering *)
  buffer_capacity : int;
  wear_level : Wear_level.policy option;
      (** leveler installed at boot; [None] installs none, so logical
          lines are slots *)
  caram : int option;
      (** CARAM content-store associativity installed at boot; [None]
          leaves the write path byte-identical to the content-blind
          device (DESIGN.md §16) *)
}

let default_config =
  {
    pages = 64;
    wear = Wear.fast_params;
    clustering = Some Geometry.default_region_pages;
    buffer_capacity = 32;
    wear_level = None;
    caram = None;
  }

(* lines per arena chunk: 1024 × 64 B = 64 KB, so a device that only
   ever touches a few pages commits a few chunks, not the whole module *)
let chunk_lines = 1024

type t = {
  config : config;
  nlines : int;
  seed : int;
  rng : Xrng.t;
  wear : Wear.Table.t;  (** per-line wear, indexed by physical line *)
  arena : Bytes.t option array;
      (** payload store: a flat arena of 64 KB chunks indexed by
          [physical / chunk_lines], committed lazily on first write *)
  buffer : Failure_buffer.t;
  regions : Redirect.t array;
      (** slot -> physical clustering maps, one per region; empty when
          clustering is off (slots are physical lines) *)
  region_lines : int;  (** lines per region (or whole device when off) *)
  mutable leveler : Wear_level.t option;
      (** logical -> slot permutation, once installed; [None]: logical
          lines are slots *)
  unusable : Bitset.t;
      (** logical lines currently unusable (failures, clustering
          metadata, the leveler's reserved gap) — maintained
          incrementally so [line_usable] is O(1) on the write path *)
  mutable on_line_failed : addr:int -> unusable:int list -> unit;
      (** OS callback: the logical address whose write failed, and the
          logical line indices newly unusable (with clustering these
          differ: the failed physical line is redirected to the cluster
          end, so the *boundary* slot becomes unusable while [addr]
          is re-backed by a working line) *)
  mutable reads : int;
  mutable writes : int;
  mutable failures : int;
  mutable dedup_hits : int;
  mutable compressed : int;
      (** writes a content store absorbed, kept across every store the
          device installs *)
  mutable caram : Caram.t option;
      (** content-aware store consulted before the cell write, above
          the translation: dedup is many-to-one, while the leveler and
          the clustering maps are bijections *)
  tracer : Trace.view;  (** pcm-lane events: wear-outs, buffer traffic, remaps *)
}

let nlines (t : t) : int = t.nlines

let npages (t : t) : int = t.config.pages

let buffer (t : t) : Failure_buffer.t = t.buffer

(** Failures currently awaiting an OS drain. *)
let buffer_occupancy (t : t) : int = Failure_buffer.occupancy t.buffer

let check_line t l =
  if l < 0 || l >= t.nlines then invalid_arg "Device: line index out of range"

(* slot -> physical through the slot's region clustering map *)
let redirect (t : t) (slot : int) : int =
  if Array.length t.regions = 0 then slot
  else
    let r = slot / t.region_lines in
    (r * t.region_lines) + Redirect.translate t.regions.(r) (slot mod t.region_lines)

(** The physical line currently backing logical line [logical]: the
    leveler's slot, then the clustering map. *)
let physical_of_logical (t : t) (logical : int) : int =
  redirect t (match t.leveler with None -> logical | Some w -> Wear_level.translate w logical)

(* the inverse of [physical_of_logical] *)
let logical_of_physical (t : t) (physical : int) : int =
  let slot =
    if Array.length t.regions = 0 then physical
    else
      let r = physical / t.region_lines in
      (r * t.region_lines) + Redirect.inverse t.regions.(r) (physical mod t.region_lines)
  in
  match t.leveler with None -> slot | Some w -> Wear_level.inverse w slot

(* like [physical_of_logical], but counts the write with the leveler
   first: a move it triggers relocates the old payload, so the incoming
   write lands at the post-move slot *)
let physical_for_write (t : t) (logical : int) : int =
  (match t.leveler with None -> () | Some w -> Wear_level.on_data_write w logical);
  physical_of_logical t logical

(* Physical line [physical] became unusable: the clustering map swaps it
   to its cluster end and names the slots that became unusable, then
   the leveler freezes each slot and names its logical line.  Returns
   the logical lines the OS must now publish. *)
let chain_failure (t : t) (physical : int) : int list =
  let slots =
    if Array.length t.regions = 0 then [ physical ]
    else
      let r = physical / t.region_lines in
      let base = r * t.region_lines in
      Redirect.record_failure t.regions.(r) ~physical:(physical - base)
      |> List.map (fun off -> base + off)
  in
  match t.leveler with
  | None -> slots
  | Some w -> List.filter_map (fun slot -> Wear_level.on_slot_unusable w ~slot) slots

(* ---- arena payload helpers ------------------------------------------- *)

let chunk_for (t : t) (physical : int) : Bytes.t =
  match t.arena.(physical / chunk_lines) with
  | Some c -> c
  | None ->
      let c = Bytes.make (chunk_lines * Geometry.line_bytes) '\000' in
      t.arena.(physical / chunk_lines) <- Some c;
      c

let line_copy_out (t : t) (physical : int) (buf : Bytes.t) : unit =
  match t.arena.(physical / chunk_lines) with
  | Some c ->
      Bytes.blit c (physical mod chunk_lines * Geometry.line_bytes) buf 0 Geometry.line_bytes
  | None -> Bytes.fill buf 0 Geometry.line_bytes '\000'

let line_copy_in (t : t) (physical : int) (buf : Bytes.t) : unit =
  Bytes.blit buf 0 (chunk_for t physical)
    (physical mod chunk_lines * Geometry.line_bytes)
    Geometry.line_bytes

(* ---- wear leveler install / gap reservation --------------------------- *)

(* Reserve a fresh start-gap line if the leveler needs one: at install,
   after a failure swallowed the gap, or on a switch to start-gap.  The
   line is published unusable like a failed one; a caller on a live
   device must also evacuate it through the failure up-call. *)
let reserve_gap (t : t) : int option =
  match t.leveler with
  | None -> None
  | Some w ->
      let r = Wear_level.ensure_gap w in
      Option.iter
        (fun r ->
          Bitset.set t.unusable r;
          if Trace.armed t.tracer then
            Trace.instant t.tracer ~tid:Trace.tid_pcm "wl_reserve"
              ~args:[ ("line", float_of_int r) ])
        r;
      r

(* Install a leveler above the clustering maps.  Pre-existing unusable
   lines are frozen into it (the fresh map is the identity, so logical =
   slot for each).  The caller then reserves its gap. *)
let install_leveler (t : t) (policy : Wear_level.policy) : unit =
  let w = Wear_level.create ~policy ~nlines:t.nlines ~seed:(t.seed lxor 0x5747a6) () in
  Bitset.iter_set t.unusable (fun l -> Wear_level.freeze_pair w l);
  let scratch_a = Bytes.create Geometry.line_bytes in
  let scratch_b = Bytes.create Geometry.line_bytes in
  Wear_level.set_io w
    {
      Wear_level.copy =
        (fun ~src ~dst ->
          (* one start-gap step: data moves src -> dst (the gap), wearing
             the destination; the outcome is not checked — a worn-out
             destination surfaces on the next data write to it *)
          let ps = redirect t src and pd = redirect t dst in
          line_copy_out t ps scratch_a;
          line_copy_in t pd scratch_a;
          ignore (Wear.Table.write t.rng t.config.wear t.wear pd);
          if Trace.armed t.tracer then
            Trace.instant t.tracer ~tid:Trace.tid_pcm "wl_gap_move"
              ~args:[ ("src", float_of_int ps); ("dst", float_of_int pd) ]);
      Wear_level.swap =
        (fun ~a ~b ->
          let pa = redirect t a and pb = redirect t b in
          line_copy_out t pa scratch_a;
          line_copy_out t pb scratch_b;
          line_copy_in t pa scratch_b;
          line_copy_in t pb scratch_a;
          ignore (Wear.Table.write t.rng t.config.wear t.wear pa);
          ignore (Wear.Table.write t.rng t.config.wear t.wear pb);
          if Trace.armed t.tracer then
            Trace.instant t.tracer ~tid:Trace.tid_pcm "wl_remap"
              ~args:[ ("a", float_of_int pa); ("b", float_of_int pb) ]);
    };
  t.leveler <- Some w

let create ?(config = default_config) ?(tracer = Trace.null) ~(seed : int) () : t =
  let nlines = config.pages * Geometry.lines_per_page in
  let rng = Xrng.of_seed seed in
  let wear = Wear.Table.create rng config.wear ~nlines in
  let regions, region_lines =
    match config.clustering with
    | None -> ([||], nlines)
    | Some region_pages ->
        if config.pages mod region_pages <> 0 then
          invalid_arg "Device.create: pages must be a multiple of the region size";
        let rl = Geometry.lines_per_region ~region_pages in
        ( Array.init (config.pages / region_pages) (fun i ->
              Redirect.create ~region_pages ~region_index:i ()),
          rl )
  in
  let t =
    {
      config;
      nlines;
      seed;
      rng;
      wear;
      arena = Array.make ((nlines + chunk_lines - 1) / chunk_lines) None;
      buffer = Failure_buffer.create ~capacity:config.buffer_capacity ();
      regions;
      region_lines;
      leveler = None;
      unusable = Bitset.create nlines;
      on_line_failed = (fun ~addr:_ ~unusable:_ -> ());
      reads = 0;
      writes = 0;
      failures = 0;
      dedup_hits = 0;
      compressed = 0;
      caram =
        (match config.caram with
        | None -> None
        | Some ways -> Some (Caram.create ~ways ~nlines ()));
      tracer;
    }
  in
  Option.iter (install_leveler t) config.wear_level;
  ignore (reserve_gap t);
  t

(** Pre-install manufacturing-time failures from a bitmap over *physical*
    lines — the boot-time state an OS scan would find.  Each failure
    takes the same walk as a wear-out (clustering swap, then leveler
    freeze), so the logically unusable lines land exactly as if the
    wear process had produced them.  No data is buffered and no interrupt fires:
    these lines failed before the machine booted. *)
let preinstall_failures (t : t) (map : Bitset.t) : unit =
  if Bitset.length map > t.nlines then
    invalid_arg "Device.preinstall_failures: map larger than the device";
  Bitset.iter_set map (fun physical ->
      Wear.Table.fail t.wear physical;
      List.iter (fun l -> Bitset.set t.unusable l) (chain_failure t physical));
  (* a boot failure can swallow start-gap's freshly reserved gap — in
     particular the clustering metadata freeze lands on region-start
     slots, and mid-device is a region start.  Re-reserve before the OS
     boot scan: nothing is written yet, so no evacuation is needed. *)
  ignore (reserve_gap t)

(** Register the OS notification callback, called after a write failure
    with the failing logical address and the logical lines that became
    unusable (the clustered slot plus, on a region's first failure, the
    redirection-map metadata). *)
let on_line_failed (t : t) (f : addr:int -> unusable:int list -> unit) : unit =
  t.on_line_failed <- f

(** Is the logical line currently usable (not failed, not metadata, not
    reserved by the leveler)?  O(1): the device maintains the set
    incrementally. *)
let line_usable (t : t) (logical : int) : bool =
  check_line t logical;
  not (Bitset.get t.unusable logical)

(** Read the 64 B payload of logical line [l].  The failure buffer is
    checked in parallel and forwards the latest value for a line whose
    failure the OS has not yet drained. *)
let read (t : t) (logical : int) : Bytes.t =
  check_line t logical;
  t.reads <- t.reads + 1;
  (* a caram binding is always the line's latest write (an absorbed
     write never reaches the cells or the failure buffer), so it wins
     over both *)
  match
    match t.caram with
    | None -> None
    | Some c -> Caram.read c logical
  with
  | Some data -> data
  | None -> (
      let physical = physical_of_logical t logical in
      match Failure_buffer.forward t.buffer ~addr:logical with
      | Some data -> Bytes.copy data
      | None -> (
          match t.arena.(physical / chunk_lines) with
          | Some chunk ->
              Bytes.sub chunk (physical mod chunk_lines * Geometry.line_bytes) Geometry.line_bytes
          | None -> Bytes.make Geometry.line_bytes '\000'))

type write_result =
  | Stored  (** write succeeded (possibly via an ECP correction) *)
  | Write_failed  (** line permanently failed; data preserved in the buffer *)
  | Stalled  (** device is refusing writes until the OS drains the buffer *)
  | Unusable  (** the line is already unusable: nothing written or counted *)

(** Write a 64 B payload to logical line [l], advancing the wear model.
    On a permanent failure the data goes to the failure buffer, the OS
    callback fires with the newly unusable logical lines, and the result
    is [Write_failed].  A line that is already unusable is refused
    before anything else, stall included, with no side effect: wearing
    its dead cells again would count another failure and raise another
    interrupt with no newly unusable line. *)
let write (t : t) (logical : int) (payload : Bytes.t) : write_result =
  check_line t logical;
  if Bytes.length payload <> Geometry.line_bytes then
    invalid_arg "Device.write: payload must be exactly one line";
  if Bitset.get t.unusable logical then Unusable
  else if Failure_buffer.is_stalled t.buffer then Stalled
  else begin
    t.writes <- t.writes + 1;
    let content =
      match t.caram with None -> Caram.Store | Some c -> Caram.write c logical payload
    in
    match content with
    (* content dedup/compression: the cells never see this write *)
    | Caram.Deduplicated ->
        t.dedup_hits <- t.dedup_hits + 1;
        Stored
    | Caram.Compressed ->
        t.compressed <- t.compressed + 1;
        Stored
    | Caram.Store ->
    let physical = physical_for_write t logical in
    match Wear.Table.write t.rng t.config.wear t.wear physical with
    | Wear.Ok | Wear.Corrected ->
        line_copy_in t physical payload;
        Stored
    | Wear.Failed ->
        t.failures <- t.failures + 1;
        if Trace.armed t.tracer then
          Trace.instant t.tracer ~tid:Trace.tid_pcm "wear_out"
            ~args:[ ("line", float_of_int logical) ];
        let inserted = Failure_buffer.insert t.buffer ~addr:logical ~data:payload in
        if not inserted then failwith "Device.write: failure buffer overflow (model error)";
        if Trace.armed t.tracer then begin
          Trace.counter t.tracer ~tid:Trace.tid_pcm "fbuf"
            [ ("occupancy", float_of_int (Failure_buffer.occupancy t.buffer)) ];
          if Failure_buffer.is_stalled t.buffer then
            Trace.instant t.tracer ~tid:Trace.tid_pcm "fbuf_stall"
        end;
        let newly_unusable = chain_failure t physical in
        List.iter (fun l -> Bitset.set t.unusable l) newly_unusable;
        (* if the failure swallowed start-gap's gap, re-reserve one so
           leveling keeps running; the new reservation rides the same
           OS notification as the failure itself *)
        let newly_unusable = newly_unusable @ Option.to_list (reserve_gap t) in
        t.on_line_failed ~addr:logical ~unusable:newly_unusable;
        Write_failed
  end

(** Switch the wear-leveling policy mid-run.  [None] pauses the mover
    (the live permutation and every published failure stay put — tearing
    the map down would scramble both data and the OS failure view).
    Enabling a policy installs the leveler on first use; a start-gap
    enable that needs a fresh gap reserves a line and retires it through
    the normal failure up-call, so the OS and runtime evacuate it like
    any other dying line. *)
let set_wear_level (t : t) (p : Wear_level.policy option) : unit =
  (match (t.leveler, p) with
  | Some w, _ -> Wear_level.set_policy w p
  | None, Some policy -> install_leveler t policy
  | None, None -> ());
  Option.iter (fun r -> t.on_line_failed ~addr:r ~unusable:[ r ]) (reserve_gap t)

(** The currently configured wear-leveling policy ([None] = none
    installed, or paused). *)
let wear_level (t : t) : Wear_level.policy option =
  match t.leveler with None -> None | Some w -> Wear_level.policy w

(** The wear leveler, for property tests. *)
let leveler (t : t) : Wear_level.t option = t.leveler

(** Switch the CARAM content store mid-run.  Disabling (or changing the
    associativity of) a live store first writes every bound line's
    content through the normal cell path — the store was authoritative
    for those lines, and tearing it down must not lose data.  The
    write-through wears cells and can surface failures, which ride the
    ordinary failure up-call. *)
let set_caram (t : t) (ways : int option) : unit =
  let flush c =
    t.caram <- None;
    List.iter
      (fun (logical, data) -> ignore (write t logical data))
      (Caram.flush c)
  in
  match (t.caram, ways) with
  | None, None -> ()
  | None, Some w -> t.caram <- Some (Caram.create ~ways:w ~nlines:t.nlines ())
  | Some c, None -> flush c
  | Some c, Some w ->
      if Caram.(c.ways) <> w then begin
        flush c;
        t.caram <- Some (Caram.create ~ways:w ~nlines:t.nlines ())
      end

(** The content store, for property tests and the verifier. *)
let caram (t : t) : Caram.t option = t.caram

(** CARAM internal-consistency errors (empty when off or consistent);
    touches no counted path. *)
let caram_check (t : t) : string list =
  match t.caram with None -> [] | Some c -> Caram.check c

(** OS drain path: acknowledge (and drop) the buffered failure for the
    failing logical address, after the OS has relocated (or restored)
    the data.  Returns the preserved payload. *)
let drain_failure (t : t) (logical : int) : Bytes.t option =
  check_line t logical;
  match Failure_buffer.forward t.buffer ~addr:logical with
  | None -> None
  | Some data ->
      ignore (Failure_buffer.clear t.buffer ~addr:logical);
      if Trace.armed t.tracer then begin
        Trace.instant t.tracer ~tid:Trace.tid_pcm "fbuf_drain"
          ~args:[ ("line", float_of_int logical) ];
        Trace.counter t.tracer ~tid:Trace.tid_pcm "fbuf"
          [ ("occupancy", float_of_int (Failure_buffer.occupancy t.buffer)) ]
      end;
      Some data

(** Logical indices of all currently unusable lines, ascending. *)
let unusable_lines (t : t) : int list =
  let acc = ref [] in
  Bitset.iter_set t.unusable (fun i -> acc := i :: !acc);
  List.rev !acc

(** The leveler's own invariant, each clustering map's permutation
    check, then whole-device bijectivity: every logical line reaches a
    distinct in-range physical line, and {!logical_of_physical} leads
    back.  The translation-consistency check {!Holes.Verify} runs each
    phase; touches no counted path. *)
let check_translation (t : t) : (unit, string) result =
  let leveler_ok = match t.leveler with None -> Ok () | Some w -> Wear_level.check w in
  let bad_region = ref None in
  Array.iteri
    (fun i r -> if !bad_region = None && not (Redirect.is_permutation r) then bad_region := Some i)
    t.regions;
  match (leveler_ok, !bad_region) with
  | (Error _ as e), _ -> e
  | Ok (), Some i -> Error (Printf.sprintf "clustering map: region %d is not a permutation" i)
  | Ok (), None ->
      let seen = Array.make t.nlines false in
      let rec lines l =
        if l >= t.nlines then Ok ()
        else
          let p = physical_of_logical t l in
          if p < 0 || p >= t.nlines then
            Error (Printf.sprintf "translation: line %d translates out of range (%d)" l p)
          else if seen.(p) then
            Error (Printf.sprintf "translation: physical line %d reached twice" p)
          else if logical_of_physical t p <> l then
            Error
              (Printf.sprintf "translation: inverse(translate %d) = %d" l (logical_of_physical t p))
          else begin
            seen.(p) <- true;
            lines (l + 1)
          end
      in
      lines 0

(** Coefficient of variation of per-line wear (write counts) across the
    module: ~0 under perfect leveling, large when traffic concentrates.
    The paper's Sec. 7.2 ablation reads this as "how level is the
    wear". *)
let wear_cov (t : t) : float =
  let m = Holes_obs.Stats.moments () in
  for l = 0 to t.nlines - 1 do
    Holes_obs.Stats.accumulate m (float_of_int (Wear.Table.writes t.wear l))
  done;
  Holes_obs.Stats.cov m

(** Accumulated write count over the physical lines currently backing
    logical page [page] — the wear signal the OS page allocator consults
    when [Config.wear_aware_pools] orders the free perfect pool.
    Translates each line, so the leveler's remaps are reflected. *)
let page_wear (t : t) (page : int) : int =
  if page < 0 || page >= t.config.pages then invalid_arg "Device.page_wear: page out of range";
  let base = page * Geometry.lines_per_page in
  let acc = ref 0 in
  for i = 0 to Geometry.lines_per_page - 1 do
    acc := !acc + Wear.Table.writes t.wear (physical_of_logical t (base + i))
  done;
  !acc

type wl_stats = {
  gap_moves : int;  (** start-gap movements *)
  remaps : int;  (** pair swaps (random remap / decoder swap) *)
  copies : int;  (** overhead line copies charged to the device *)
  meta_writes : int;  (** leveling map / decoder reprogram writes *)
}

type stats = {
  reads : int;
  writes : int;
  failures : int;
  buffer : Failure_buffer.stats;
  wl : wl_stats option;  (** present once a leveler is installed *)
  dedup_hits : int;  (** writes a content store deduplicated *)
  compressed : int;  (** writes a content store compressed *)
}

let stats (t : t) : stats =
  {
    reads = t.reads;
    writes = t.writes;
    failures = t.failures;
    buffer = Failure_buffer.stats t.buffer;
    dedup_hits = t.dedup_hits;
    compressed = t.compressed;
    wl =
      (match t.leveler with
      | None -> None
      | Some w ->
          Some
            {
              gap_moves = Wear_level.gap_moves w;
              remaps = Wear_level.remaps w;
              copies = Wear_level.copies w;
              meta_writes = Wear_level.meta_writes w;
            });
  }
