(** MigrantStore-style DRAM/PCM page tiering (DESIGN.md §17).

    The OS watches the device-write charge stream and keeps a decayed
    per-page write-frequency count.  A page whose count crosses the
    promotion threshold is {e promoted}: a free DRAM frame is
    allocated, the mapping is retargeted with {!Vmm.migrate} (the PCM
    home stays reserved — its failure bitmap and wear state must
    survive the round trip), and subsequent writes land in DRAM,
    consuming no PCM endurance.  An epoch counter — one tick per
    charged line write through the node — periodically halves every
    frequency count and {e demotes} residents that went cold: dirty
    lines are written back through the normal device path (wearing
    cells, possibly surfacing failures through the ordinary up-call
    chain), then the mapping flips back to the PCM home and the DRAM
    frame returns to the pool.

    Clean lines never leave the PCM arena, so a demotion writes back
    only the lines dirtied while promoted.  Migration copies are
    charged to the requesting VM's cost model through the
    [charge_copy] callback; the tier itself knows nothing about cost
    weights. *)

open Holes_stdx
module Trace = Holes_obs.Trace
module Geometry = Holes_pcm.Geometry

(* The residents live in int arrays indexed by DRAM frame, so that a
   promotion, a demotion and an epoch tick allocate nothing.  A frame's
   dirty lines are [dirty_words] 32-bit words of [dirty]. *)
let dirty_words = (Geometry.lines_per_page + 31) / 32

(* [pid] of a frame the tier holds no page in *)
let no_page = -1

(** What tiers have done, in a record their owner keeps: a device node
    keeps one across every tier it creates, so switching migration off
    and on again loses no count. *)
type counts = {
  mutable promotes : int;
  mutable demotes : int;
  mutable dram_writes : int;  (** writes absorbed by promoted pages *)
}

let counts () : counts = { promotes = 0; demotes = 0; dram_writes = 0 }

type t = {
  vmm : Vmm.t;
  device : Holes_pcm.Device.t;
  interrupts : Interrupts.t;  (** drains the failure buffer when a write-back stalls *)
  epoch : int;  (** charged line writes between decay rounds *)
  promote_threshold : int;
  mutable heat : int array array;
      (** pid -> virtual page -> decayed write count (0 = cold); each
          row grows on demand and is freed when its process drops *)
  pid : int array;  (** dram frame id -> its resident's pid, or [no_page] *)
  virt : int array;  (** dram frame id -> the resident's virtual page *)
  home : int array;  (** dram frame id -> the reserved PCM home (pool page id) *)
  writes : int array;  (** dram frame id -> writes absorbed since the last epoch *)
  stamp : int array;
      (** dram frame id -> generation, bumped at every promotion: a
          demotion that finds its frame's stamp changed knows a nested
          demotion freed the frame (and maybe gave it to another page) *)
  dirty : int array;  (** frame [f]'s lines written while promoted, from word [f * dirty_words] *)
  buffers : Bytes.t array;
      (** dram frame id -> its content buffer, allocated on the frame's
          first promotion and reused by every later resident: only the
          current resident's dirty lines are its own *)
  line : Bytes.t;  (** the staging line of a write-back *)
  mutable snap_frame : int array;
  mutable snap_stamp : int array;
      (** the frames a demotion round picked, and their stamps, taken
          before its first write-back; a round nested in a write-back's
          up-call pushes its own snapshot above [snap_top] *)
  mutable snap_top : int;
  mutable tick : int;
  counts : counts;
  tracer : Trace.view;
}

(** A tier over the VMM and device [interrupts] serves, tracing to the
    handler's view and counting into [counts]; its residents occupy the
    VMM's DRAM frames. *)
let create ~(counts : counts) ~(interrupts : Interrupts.t) ~(epoch : int) () : t =
  if epoch <= 0 then invalid_arg "Tier.create: epoch must be positive";
  let vmm = interrupts.Interrupts.vmm in
  let frames = Pools.dram_pages (Vmm.pools vmm) in
  {
    vmm;
    device = interrupts.Interrupts.device;
    interrupts;
    epoch;
    (* hot enough to matter within one decay window: 1/256th of the
       epoch's writes on a single page, floored so tiny epochs still
       demand repeated traffic *)
    promote_threshold = max 4 (epoch / 256);
    heat = [||];
    pid = Array.make frames no_page;
    virt = Array.make frames 0;
    home = Array.make frames 0;
    writes = Array.make frames 0;
    stamp = Array.make frames 0;
    dirty = Array.make (frames * dirty_words) 0;
    buffers = Array.make frames Bytes.empty;
    line = Bytes.create Geometry.line_bytes;
    snap_frame = Array.make frames 0;
    snap_stamp = Array.make frames 0;
    snap_top = 0;
    tick = 0;
    counts;
    tracer = interrupts.Interrupts.tracer;
  }

(** The pages promoted into DRAM frames now. *)
let resident (t : t) : int = Array.fold_left (fun n p -> if p = no_page then n else n + 1) 0 t.pid

(** Residents as [(pid, virt, dram_phys, pcm_phys)], ascending by frame
    — non-counted accessors only, safe for the paranoid verifier. *)
let residents (t : t) : (int * int * int * int) list =
  let acc = ref [] in
  for f = Array.length t.pid - 1 downto 0 do
    if t.pid.(f) <> no_page then acc := (t.pid.(f), t.virt.(f), f, t.home.(f)) :: !acc
  done;
  !acc

(* ---- the dirty bitmap -------------------------------------------------- *)

let set_dirty (t : t) (frame : int) (line : int) : unit =
  let w = (frame * dirty_words) + (line lsr 5) in
  t.dirty.(w) <- t.dirty.(w) lor (1 lsl (line land 31))

let clear_dirty (t : t) (frame : int) (line : int) : unit =
  let w = (frame * dirty_words) + (line lsr 5) in
  t.dirty.(w) <- t.dirty.(w) land lnot (1 lsl (line land 31))

(* the lowest line set in words [w] and up of the frame whose words
   start at [base], or -1 *)
let rec lowest_dirty_from (dirty : int array) (base : int) (w : int) : int =
  if w = dirty_words then -1
  else
    let bits = dirty.(base + w) in
    if bits <> 0 then (w * 32) + Bitset.ctz bits else lowest_dirty_from dirty base (w + 1)

let lowest_dirty (t : t) (frame : int) : int = lowest_dirty_from t.dirty (frame * dirty_words) 0

(* ---- demotion --------------------------------------------------------- *)

(* [frame] still holds the resident stamped [stamp].  A write-back's
   up-call can run the runtime, whose writes tick the epoch, and a
   nested tick may demote that resident (and reuse its frame) before the
   outer demotion resumes. *)
let holds (t : t) (frame : int) (stamp : int) : bool =
  t.pid.(frame) <> no_page && t.stamp.(frame) = stamp

(* Write the dirty lines back while the page still maps to its frame,
   then flip the mapping and free the frame with nothing in between.  A
   line stays dirty until its write is stored or the line is unusable:
   a write-back that stalls services the interrupts and takes the
   lowest dirty line again, until none is left.  The service may run a
   collection that verifies the tier and writes this page: until the
   flip, those writes land in the frame and dirty it too.  The service
   may also tick the epoch and demote this resident, writing back every
   dirty line, the stalled one included; the loop then stops. *)
let demote (t : t) (frame : int) ~(stamp : int) ~(charge_copy : bytes:int -> unit) : unit =
  if holds t frame stamp then begin
    let pid = t.pid.(frame) and virt = t.virt.(frame) and home = t.home.(frame) in
    let proc = Vmm.find_process t.vmm pid in
    let written = ref 0 in
    if proc <> None then begin
      let base = (home - Pools.dram_pages (Vmm.pools t.vmm)) * Geometry.lines_per_page in
      let line = ref (lowest_dirty t frame) in
      while !line >= 0 && holds t frame stamp do
        let l = !line in
        Bytes.blit t.buffers.(frame) (l * Geometry.line_bytes) t.line 0 Geometry.line_bytes;
        (match Holes_pcm.Device.write t.device (base + l) t.line with
        | Holes_pcm.Device.Stored | Holes_pcm.Device.Write_failed ->
            clear_dirty t frame l;
            incr written
        | Holes_pcm.Device.Unusable -> clear_dirty t frame l
        | Holes_pcm.Device.Stalled -> Interrupts.service t.interrupts);
        line := lowest_dirty t frame
      done
    end;
    charge_copy ~bytes:(!written * Geometry.line_bytes);
    if holds t frame stamp then begin
      (* a process that raced away has no mapping to flip;
         drop_process handles live exits *)
      (match proc with
      | Some p -> Vmm.migrate t.vmm p ~virt ~new_phys:home
      | None -> ());
      Pools.free (Vmm.pools t.vmm) frame;
      t.pid.(frame) <- no_page;
      t.counts.demotes <- t.counts.demotes + 1;
      if proc <> None && Trace.armed t.tracer then
        Trace.instant t.tracer ~tid:Trace.tid_osal "page_demote"
          ~args:
            [
              ("virt", float_of_int virt);
              ("pcm", float_of_int home);
              ("dirty", float_of_int !written);
            ]
    end
  end

(* [pid] matching a resident of any process *)
let any_pid = min_int

(* Demote the residents of [pid] (of every process for [any_pid]) that
   absorbed fewer than [below] writes this epoch, ascending by frame;
   true when there were any.  They are picked before the first
   write-back: its up-call can promote pages into other frames, and
   those stay.  A nested round pushes its snapshot above this one. *)
let demote_round (t : t) ~(pid : int) ~(below : int) ~(charge_copy : bytes:int -> unit) : bool =
  let frames = Array.length t.pid in
  let bottom = t.snap_top in
  if bottom + frames > Array.length t.snap_frame then begin
    let grown a =
      let b = Array.make (2 * (bottom + frames)) 0 in
      Array.blit a 0 b 0 bottom;
      b
    in
    t.snap_frame <- grown t.snap_frame;
    t.snap_stamp <- grown t.snap_stamp
  end;
  let top = ref bottom in
  for f = 0 to frames - 1 do
    let p = t.pid.(f) in
    if p <> no_page && (pid = any_pid || p = pid) && t.writes.(f) < below then begin
      t.snap_frame.(!top) <- f;
      t.snap_stamp.(!top) <- t.stamp.(f);
      incr top
    end
  done;
  let top = !top in
  t.snap_top <- top;
  for i = bottom to top - 1 do
    demote t t.snap_frame.(i) ~stamp:t.snap_stamp.(i) ~charge_copy
  done;
  t.snap_top <- bottom;
  top > bottom

(* Demote every resident of [pid] (of every process for [any_pid]).
   The write-backs' up-calls can promote pages again, so repeat until
   none is left. *)
let rec demote_all (t : t) ~(pid : int) ~(charge_copy : bytes:int -> unit) : unit =
  if demote_round t ~pid ~below:max_int ~charge_copy then demote_all t ~pid ~charge_copy

(** Demote every resident belonging to [pid] and free its heat row —
    must run before the process's pages are unmapped (a munmap of a
    promoted page would free the DRAM frame and leak the reserved PCM
    home). *)
let drop_process (t : t) ~(pid : int) ~(charge_copy : bytes:int -> unit) : unit =
  demote_all t ~pid ~charge_copy;
  if pid < Array.length t.heat then t.heat.(pid) <- [||]

(** Demote every resident (turning migration off mid-run). *)
let drop_all (t : t) ~(charge_copy : bytes:int -> unit) : unit =
  demote_all t ~pid:any_pid ~charge_copy

(* ---- promotion -------------------------------------------------------- *)

let promote (t : t) (proc : Vmm.process) ~(virt : int) ~(pcm_phys : int)
    ~(charge_copy : bytes:int -> unit) : unit =
  let pools = Vmm.pools t.vmm in
  (* leave the last frame for the interrupt handler's swap-in fallback *)
  if Pools.free_dram_count pools > 1 then begin
    let frame = Pools.alloc_dram pools in
    Vmm.migrate t.vmm proc ~virt ~new_phys:frame;
    (* a demotion reads only the lines its resident dirtied, so what
       earlier residents left in the frame's buffer is never read and
       the buffer needs no clearing *)
    if Bytes.length t.buffers.(frame) = 0 then
      t.buffers.(frame) <- Bytes.create Geometry.page_bytes;
    t.pid.(frame) <- proc.Vmm.pid;
    t.virt.(frame) <- virt;
    t.home.(frame) <- pcm_phys;
    t.writes.(frame) <- 0;
    t.stamp.(frame) <- t.stamp.(frame) + 1;
    Array.fill t.dirty (frame * dirty_words) dirty_words 0;
    t.heat.(proc.Vmm.pid).(virt) <- 0;
    t.counts.promotes <- t.counts.promotes + 1;
    charge_copy ~bytes:Geometry.page_bytes;
    if Trace.armed t.tracer then
      Trace.instant t.tracer ~tid:Trace.tid_osal "page_promote"
        ~args:[ ("virt", float_of_int virt); ("frame", float_of_int frame) ]
  end

(* ---- the epoch clock -------------------------------------------------- *)

(* Every [epoch] ticks: halve every heat counter, demote the residents
   that absorbed fewer than a cold count of writes this epoch, and
   start the next epoch's counts. *)
let epoch_tick (t : t) ~(charge_copy : bytes:int -> unit) : unit =
  t.tick <- t.tick + 1;
  if t.tick >= t.epoch then begin
    t.tick <- 0;
    Array.iter
      (fun row ->
        for v = 0 to Array.length row - 1 do
          Array.unsafe_set row v (Array.unsafe_get row v / 2)
        done)
      t.heat;
    ignore
      (demote_round t ~pid:any_pid ~below:(max 2 (t.promote_threshold / 2)) ~charge_copy : bool);
    Array.fill t.writes 0 (Array.length t.writes) 0
  end

(* the heat row of [pid], grown to hold [virt] *)
let heat_row (t : t) ~(pid : int) ~(virt : int) : int array =
  if pid >= Array.length t.heat then begin
    let heat = Array.make (max (2 * Array.length t.heat) (pid + 1)) [||] in
    Array.blit t.heat 0 heat 0 (Array.length t.heat);
    t.heat <- heat
  end;
  let row = t.heat.(pid) in
  if virt < Array.length row then row
  else begin
    let grown = Array.make (max (2 * Array.length row) (virt + 1)) 0 in
    Array.blit row 0 grown 0 (Array.length row);
    t.heat.(pid) <- grown;
    grown
  end

(** A charged line write that reached the PCM path: bump the page's
    heat and promote it when it crosses the threshold. *)
let note_pcm_write (t : t) (proc : Vmm.process) ~(virt : int) ~(pcm_phys : int)
    ~(charge_copy : bytes:int -> unit) : unit =
  let row = heat_row t ~pid:proc.Vmm.pid ~virt in
  let c = row.(virt) + 1 in
  row.(virt) <- c;
  if c >= t.promote_threshold then promote t proc ~virt ~pcm_phys ~charge_copy;
  epoch_tick t ~charge_copy

(** A charged line write whose translation landed in DRAM.  On a tier
    resident the write is absorbed and the line dirtied; frames the
    interrupt handler swapped in are not the tier's, and their writes
    are ignored. *)
let note_dram_write (t : t) ~(phys : int) ~(line : int) ~(payload : Bytes.t)
    ~(charge_copy : bytes:int -> unit) : unit =
  if t.pid.(phys) <> no_page then begin
    set_dirty t phys line;
    Bytes.blit payload 0 t.buffers.(phys) (line * Geometry.line_bytes) Geometry.line_bytes;
    t.writes.(phys) <- t.writes.(phys) + 1;
    t.counts.dram_writes <- t.counts.dram_writes + 1;
    epoch_tick t ~charge_copy
  end

(* ---- verifier support ------------------------------------------------- *)

(** Corrupt the residency map (tests only: the verifier must catch it). *)
let unsafe_poke (t : t) : unit =
  match residents t with
  | (_, _, frame, _) :: _ ->
      (* point the reserved PCM home back into the DRAM range: the
         round-trip invariant (home stays a reserved PCM page) breaks *)
      t.home.(frame) <- frame
  | [] ->
      (* no resident yet: invent one of a pid no process has — every
         invariant fails on it *)
      t.pid.(0) <- max_int;
      t.virt.(0) <- -1;
      t.home.(0) <- Pools.dram_pages (Vmm.pools t.vmm)
