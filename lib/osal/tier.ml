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

type resident = {
  r_pid : int;
  r_virt : int;
  r_pcm_phys : int;  (** the reserved PCM home (pool page id) *)
  r_dram_phys : int;  (** the DRAM frame now backing the page *)
  dirty : Bitset.t;  (** lines written while promoted *)
  mutable dram_writes : int;  (** writes absorbed since the last epoch *)
}

type t = {
  vmm : Vmm.t;
  device : Holes_pcm.Device.t;
  interrupts : Interrupts.t;  (** drains the failure buffer when a write-back stalls *)
  epoch : int;  (** charged line writes between decay rounds *)
  promote_threshold : int;
  mutable heat : int array array;
      (** pid -> virtual page -> decayed write count (0 = cold); each
          row grows on demand and is freed when its process drops *)
  by_frame : resident option array;  (** dram frame id -> resident *)
  buffers : Bytes.t array;
      (** dram frame id -> its content buffer, allocated on the frame's
          first promotion and reused by every later resident: only the
          current resident's dirty lines are its own *)
  mutable tick : int;
  mutable promotes : int;
  mutable demotes : int;
  mutable dram_writes : int;  (** total writes absorbed by promoted pages *)
  tracer : Trace.view;
}

type stats = {
  s_promotes : int;
  s_demotes : int;
  s_dram_writes : int;
  s_resident : int;
}

(** A tier over the VMM and device [interrupts] serves; its residents
    occupy the VMM's DRAM frames. *)
let create ?(tracer = Trace.null) ~(interrupts : Interrupts.t) ~(epoch : int) () : t =
  if epoch <= 0 then invalid_arg "Tier.create: epoch must be positive";
  let vmm = interrupts.Interrupts.vmm in
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
    by_frame = Array.make (Pools.dram_pages (Vmm.pools vmm)) None;
    buffers = Array.make (Pools.dram_pages (Vmm.pools vmm)) Bytes.empty;
    tick = 0;
    promotes = 0;
    demotes = 0;
    dram_writes = 0;
    tracer;
  }

(* the residents satisfying [p], ascending by frame *)
let residents_where (t : t) (p : resident -> bool) : resident list =
  Array.fold_right
    (fun slot acc -> match slot with Some r when p r -> r :: acc | _ -> acc)
    t.by_frame []

let stats (t : t) : stats =
  {
    s_promotes = t.promotes;
    s_demotes = t.demotes;
    s_dram_writes = t.dram_writes;
    s_resident = List.length (residents_where t (fun _ -> true));
  }

(** Residents as [(pid, virt, dram_phys, pcm_phys)], ascending by frame
    — non-counted accessors only, safe for the paranoid verifier. *)
let residents (t : t) : (int * int * int * int) list =
  List.map
    (fun r -> (r.r_pid, r.r_virt, r.r_dram_phys, r.r_pcm_phys))
    (residents_where t (fun _ -> true))

(* ---- demotion --------------------------------------------------------- *)

(* per-domain write-back staging line: engine workers run one tier per
   domain, and a module-level buffer shared across domains would let
   parallel demotions corrupt each other's payloads *)
let scratch : Bytes.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Bytes.create Geometry.line_bytes)

(* [r] still holds its frame.  A write-back's up-call can run the
   runtime, whose writes tick the epoch, and a nested tick may demote
   [r] (and reuse its frame) before the outer demotion resumes. *)
let holds_frame (t : t) (r : resident) : bool =
  match t.by_frame.(r.r_dram_phys) with Some r' -> r' == r | None -> false

(* Write the dirty lines back while the page still maps to its frame,
   then flip the mapping and free the frame with nothing in between.  A
   write-back that stalls services the interrupts and takes its line
   again.  The service may run a collection that verifies the tier and
   writes this page: until the flip, those writes land in the frame and
   re-dirty it, so the loop takes the lowest dirty line until none is
   left, and stops if a nested tick demoted [r]. *)
let demote (t : t) (r : resident) ~(charge_copy : bytes:int -> unit) : unit =
  if holds_frame t r then begin
    let proc = Vmm.find_process t.vmm r.r_pid in
    let written = ref 0 in
    if proc <> None then begin
      let base = (r.r_pcm_phys - Pools.dram_pages (Vmm.pools t.vmm)) * Geometry.lines_per_page in
      let buf = Domain.DLS.get scratch in
      let rec flush () =
        match Bitset.next_set r.dirty 0 with
        | Some line when holds_frame t r ->
            Bitset.clear r.dirty line;
            Bytes.blit t.buffers.(r.r_dram_phys) (line * Geometry.line_bytes) buf 0
              Geometry.line_bytes;
            (match Holes_pcm.Device.write t.device (base + line) buf with
            | Holes_pcm.Device.Stored | Holes_pcm.Device.Write_failed -> incr written
            | Holes_pcm.Device.Unusable -> ()
            | Holes_pcm.Device.Stalled ->
                Interrupts.service t.interrupts;
                Bitset.set r.dirty line);
            flush ()
        | _ -> ()
      in
      flush ()
    end;
    charge_copy ~bytes:(!written * Geometry.line_bytes);
    if holds_frame t r then begin
      (* a process that raced away has no mapping to flip;
         drop_process handles live exits *)
      Option.iter (fun p -> Vmm.migrate t.vmm p ~virt:r.r_virt ~new_phys:r.r_pcm_phys) proc;
      Pools.free (Vmm.pools t.vmm) r.r_dram_phys;
      t.by_frame.(r.r_dram_phys) <- None;
      t.demotes <- t.demotes + 1;
      if proc <> None && Trace.armed t.tracer then
        Trace.instant t.tracer ~tid:Trace.tid_osal "page_demote"
          ~args:
            [
              ("virt", float_of_int r.r_virt);
              ("pcm", float_of_int r.r_pcm_phys);
              ("dirty", float_of_int !written);
            ]
    end
  end

(* Demote every resident satisfying [p].  The write-backs' up-calls can
   promote pages again, so repeat until none is left. *)
let rec demote_where (t : t) (p : resident -> bool) ~(charge_copy : bytes:int -> unit) : unit =
  match residents_where t p with
  | [] -> ()
  | rs ->
      List.iter (fun r -> demote t r ~charge_copy) rs;
      demote_where t p ~charge_copy

(** Demote every resident belonging to [pid] and free its heat row —
    must run before the process's pages are unmapped (a munmap of a
    promoted page would free the DRAM frame and leak the reserved PCM
    home). *)
let drop_process (t : t) ~(pid : int) ~(charge_copy : bytes:int -> unit) : unit =
  demote_where t (fun r -> r.r_pid = pid) ~charge_copy;
  if pid < Array.length t.heat then t.heat.(pid) <- [||]

(** Demote every resident (turning migration off mid-run). *)
let drop_all (t : t) ~(charge_copy : bytes:int -> unit) : unit =
  demote_where t (fun _ -> true) ~charge_copy

(* ---- promotion -------------------------------------------------------- *)

let promote (t : t) (proc : Vmm.process) ~(virt : int) ~(pcm_phys : int)
    ~(charge_copy : bytes:int -> unit) : unit =
  let pools = Vmm.pools t.vmm in
  (* leave the last frame for the interrupt handler's swap-in fallback *)
  if Pools.free_dram_count pools > 1 then
    match Pools.alloc_dram pools with
    | None -> ()
    | Some frame ->
        Vmm.migrate t.vmm proc ~virt ~new_phys:frame;
        (* a demotion reads only the lines its resident dirtied, so what
           earlier residents left in the frame's buffer is never read
           and the buffer needs no clearing *)
        if Bytes.length t.buffers.(frame) = 0 then
          t.buffers.(frame) <- Bytes.create Geometry.page_bytes;
        t.by_frame.(frame) <-
          Some
          {
            r_pid = proc.Vmm.pid;
            r_virt = virt;
            r_pcm_phys = pcm_phys;
            r_dram_phys = frame;
            dirty = Bitset.create Geometry.lines_per_page;
            dram_writes = 0;
          };
        t.heat.(proc.Vmm.pid).(virt) <- 0;
        t.promotes <- t.promotes + 1;
        charge_copy ~bytes:Geometry.page_bytes;
        if Trace.armed t.tracer then
          Trace.instant t.tracer ~tid:Trace.tid_osal "page_promote"
            ~args:[ ("virt", float_of_int virt); ("frame", float_of_int frame) ]

(* ---- the epoch clock -------------------------------------------------- *)

(* the residents in frames [frame] and up that absorbed fewer than
   [cold] writes this epoch, ascending by frame *)
let rec cold_from (t : t) ~(cold : int) (frame : int) : resident list =
  if frame >= Array.length t.by_frame then []
  else
    match t.by_frame.(frame) with
    | Some r when r.dram_writes < cold -> r :: cold_from t ~cold (frame + 1)
    | _ -> cold_from t ~cold (frame + 1)

(* A tick that demotes nothing allocates nothing. *)
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
    (match cold_from t ~cold:(max 2 (t.promote_threshold / 2)) 0 with
    | [] -> ()
    | cold -> List.iter (fun r -> demote t r ~charge_copy) cold);
    Array.iter (function Some (r : resident) -> r.dram_writes <- 0 | None -> ()) t.by_frame
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
  match t.by_frame.(phys) with
  | None -> ()
  | Some r ->
      Bitset.set r.dirty line;
      Bytes.blit payload 0 t.buffers.(phys) (line * Geometry.line_bytes) Geometry.line_bytes;
      r.dram_writes <- r.dram_writes + 1;
      t.dram_writes <- t.dram_writes + 1;
      epoch_tick t ~charge_copy

(* ---- verifier support ------------------------------------------------- *)

(** Corrupt the residency map (tests only: the verifier must catch it). *)
let unsafe_poke (t : t) : unit =
  match residents_where t (fun _ -> true) with
  | r :: _ ->
      (* point the reserved PCM home back into the DRAM range: the
         round-trip invariant (home stays a reserved PCM page) breaks *)
      t.by_frame.(r.r_dram_phys) <- Some { r with r_pcm_phys = r.r_dram_phys }
  | [] ->
      (* no resident yet: invent one — every invariant fails on it *)
      t.by_frame.(0) <-
        Some
        {
          r_pid = -1;
          r_virt = -1;
          r_pcm_phys = Pools.dram_pages (Vmm.pools t.vmm);
          r_dram_phys = 0;
          dirty = Bitset.create Geometry.lines_per_page;
          dram_writes = 0;
        }
