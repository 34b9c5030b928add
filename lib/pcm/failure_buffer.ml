(** The failure buffer (paper Sec. 3.1.1).

    When a PCM write fails, the module copies the written data and its
    physical address into a small FIFO buffer (SRAM/DRAM on the DIMM or
    memory controller) and interrupts the processor.  Reads check the
    buffer in parallel with the array and the buffer's entry wins, so the
    failed write's data survives until the OS drains it.  An earlier entry
    with the same address is invalidated.  When occupancy crosses a high
    watermark (enough slots reserved to drain outstanding writes), the
    device stops accepting writes until the OS clears at least one entry
    — preventing deadlock and data loss.  The interrupts themselves are
    the device's failure callback ([Device.on_line_failed]) and its
    [Stalled] write result. *)

type entry = { addr : int;  (** physical line index *) data : Bytes.t }

type t = {
  capacity : int;
  watermark : int;
  mutable entries : entry list;  (** oldest first *)
  mutable stalled : bool;
  (* statistics *)
  mutable total_insertions : int;
  mutable total_invalidations : int;
  mutable max_occupancy : int;
  mutable stall_events : int;
}

let create ?(capacity = 32) ?(watermark : int option) () : t =
  if capacity <= 0 then invalid_arg "Failure_buffer.create: capacity must be positive";
  let watermark = match watermark with Some w -> w | None -> max 1 (capacity - 4) in
  if watermark > capacity then invalid_arg "Failure_buffer.create: watermark > capacity";
  {
    capacity;
    watermark;
    entries = [];
    stalled = false;
    total_insertions = 0;
    total_invalidations = 0;
    max_occupancy = 0;
    stall_events = 0;
  }

let occupancy (t : t) : int = List.length t.entries

let is_stalled (t : t) : bool = t.stalled

(** [insert t ~addr ~data] records a failed write.  Returns [false] when
    the buffer is completely full (the device must not have issued the
    write in that state; callers treat it as a fatal model error). *)
let insert (t : t) ~(addr : int) ~(data : Bytes.t) : bool =
  if occupancy t >= t.capacity then false
  else begin
    (* invalidate an earlier entry with the same address *)
    let before = List.length t.entries in
    t.entries <- List.filter (fun e -> e.addr <> addr) t.entries;
    if List.length t.entries < before then
      t.total_invalidations <- t.total_invalidations + 1;
    t.entries <- t.entries @ [ { addr; data = Bytes.copy data } ];
    t.total_insertions <- t.total_insertions + 1;
    let occ = occupancy t in
    if occ > t.max_occupancy then t.max_occupancy <- occ;
    if occ >= t.watermark && not t.stalled then begin
      t.stalled <- true;
      t.stall_events <- t.stall_events + 1
    end;
    true
  end

(** Read-path check: the most recent value written to [addr], if the
    buffer holds one.  Performed "in parallel with the actual access" in
    hardware, so it costs nothing extra on the modeled read path. *)
let forward (t : t) ~(addr : int) : Bytes.t option =
  (* latest entry wins; insert keeps at most one entry per address *)
  List.find_opt (fun e -> e.addr = addr) t.entries |> Option.map (fun e -> e.data)

(** Oldest pending entry, without removing it. *)
let peek (t : t) : entry option =
  match t.entries with [] -> None | e :: _ -> Some e

(** OS-side: remove the entry for [addr] once handled.  Clearing an entry
    may un-stall the device. *)
let clear (t : t) ~(addr : int) : bool =
  let before = List.length t.entries in
  t.entries <- List.filter (fun e -> e.addr <> addr) t.entries;
  let removed = List.length t.entries < before in
  if removed && t.stalled && occupancy t < t.watermark then t.stalled <- false;
  removed

(** All pending entries, oldest first (the OS drains in FIFO order). *)
let pending (t : t) : entry list = t.entries

type stats = {
  insertions : int;
  invalidations : int;
  max_occupancy : int;
  stall_events : int;
}

let stats (t : t) : stats =
  {
    insertions = t.total_insertions;
    invalidations = t.total_invalidations;
    max_occupancy = t.max_occupancy;
    stall_events = t.stall_events;
  }
