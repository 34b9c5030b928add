(* Ring-buffered structured tracing with virtual timestamps.  See
   trace.mli for the contract. *)

(* ---- layer thread ids ------------------------------------------------ *)

let tid_engine = 0
let tid_gc = 1
let tid_alloc = 2
let tid_osal = 3
let tid_pcm = 4

let default_thread_names =
  [
    (tid_engine, "engine");
    (tid_gc, "core.gc");
    (tid_alloc, "core.alloc");
    (tid_osal, "osal");
    (tid_pcm, "pcm");
  ]

(* ---- events ---------------------------------------------------------- *)

type phase = Begin | End | Instant | Counter

let phase_string = function Begin -> "B" | End -> "E" | Instant -> "i" | Counter -> "C"

type event = {
  pid : int;
  tid : int;
  seq : int;  (** per-(pid,tid) emission index: the scheduling-free sort key *)
  ts : float;  (** virtual nanoseconds *)
  ph : phase;
  name : string;
  args : (string * float) list;
}

let dummy_event = { pid = 0; tid = 0; seq = 0; ts = 0.0; ph = Instant; name = ""; args = [] }

(* ---- the shared collector ------------------------------------------- *)

type t = {
  enabled : bool;
  capacity : int;
  mutex : Mutex.t;
  ring : event array;
  mutable size : int;  (** valid events in the ring *)
  mutable next : int;  (** next write slot *)
  mutable dropped : int;  (** events overwritten after the ring filled *)
  seqs : (int * int, int) Hashtbl.t;  (** (pid, tid) -> next sequence number *)
  threads : (int * int, string) Hashtbl.t;
  processes : (int, string) Hashtbl.t;
}

let default_capacity = 1 lsl 18

let create ?(capacity = default_capacity) () : t =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be positive";
  {
    enabled = true;
    capacity;
    mutex = Mutex.create ();
    ring = Array.make capacity dummy_event;
    size = 0;
    next = 0;
    dropped = 0;
    seqs = Hashtbl.create 64;
    threads = Hashtbl.create 64;
    processes = Hashtbl.create 64;
  }

let disabled : t =
  {
    enabled = false;
    capacity = 0;
    mutex = Mutex.create ();
    ring = [||];
    size = 0;
    next = 0;
    dropped = 0;
    seqs = Hashtbl.create 1;
    threads = Hashtbl.create 1;
    processes = Hashtbl.create 1;
  }

let enabled (t : t) : bool = t.enabled
let dropped (t : t) : int = t.dropped

(* ---- per-trial views ------------------------------------------------- *)

type view = { t : t; pid : int; mutable clock : unit -> float }

let null : view = { t = disabled; pid = 0; clock = (fun () -> 0.0) }

let view (t : t) ~(pid : int) : view =
  let v = { t; pid; clock = (fun () -> 0.0) } in
  if t.enabled then begin
    Mutex.lock t.mutex;
    List.iter
      (fun (tid, name) ->
        if not (Hashtbl.mem t.threads (pid, tid)) then Hashtbl.replace t.threads (pid, tid) name)
      default_thread_names;
    Mutex.unlock t.mutex
  end;
  v

let armed (v : view) : bool = v.t.enabled

let set_clock (v : view) (clock : unit -> float) : unit = if v.t.enabled then v.clock <- clock

let name_process (v : view) (name : string) : unit =
  if v.t.enabled then begin
    Mutex.lock v.t.mutex;
    Hashtbl.replace v.t.processes v.pid name;
    Mutex.unlock v.t.mutex
  end

let name_thread (v : view) ~(tid : int) (name : string) : unit =
  if v.t.enabled then begin
    Mutex.lock v.t.mutex;
    Hashtbl.replace v.t.threads (v.pid, tid) name;
    Mutex.unlock v.t.mutex
  end

(* ---- emission -------------------------------------------------------- *)

let record (v : view) ~(tid : int) ~(ph : phase) ~(args : (string * float) list)
    (name : string) : unit =
  let t = v.t in
  let ts = v.clock () in
  Mutex.lock t.mutex;
  let key = (v.pid, tid) in
  let seq = match Hashtbl.find_opt t.seqs key with Some s -> s | None -> 0 in
  Hashtbl.replace t.seqs key (seq + 1);
  t.ring.(t.next) <- { pid = v.pid; tid; seq; ts; ph; name; args };
  t.next <- (t.next + 1) mod t.capacity;
  if t.size < t.capacity then t.size <- t.size + 1 else t.dropped <- t.dropped + 1;
  Mutex.unlock t.mutex

let begin_span (v : view) ~(tid : int) ?(args = []) (name : string) : unit =
  if v.t.enabled then record v ~tid ~ph:Begin ~args name

let end_span (v : view) ~(tid : int) ?(args = []) (name : string) : unit =
  if v.t.enabled then record v ~tid ~ph:End ~args name

let with_span (v : view) ~(tid : int) ?(args = []) (name : string) (f : unit -> 'a) : 'a =
  if not v.t.enabled then f ()
  else begin
    record v ~tid ~ph:Begin ~args name;
    Fun.protect ~finally:(fun () -> record v ~tid ~ph:End ~args:[] name) f
  end

let instant (v : view) ~(tid : int) ?(args = []) (name : string) : unit =
  if v.t.enabled then record v ~tid ~ph:Instant ~args name

let counter (v : view) ~(tid : int) (name : string) (args : (string * float) list) : unit =
  if v.t.enabled then record v ~tid ~ph:Counter ~args name

(* ---- repair + ordering ----------------------------------------------- *)

(* Snapshot the ring, oldest first.  Caller holds the mutex. *)
let snapshot (t : t) : event list =
  List.init t.size (fun i ->
      let idx = if t.size < t.capacity then i else (t.next + i) mod t.capacity in
      t.ring.(idx))

let compare_events (a : event) (b : event) : int =
  match compare a.pid b.pid with
  | 0 -> ( match compare a.tid b.tid with 0 -> compare a.seq b.seq | c -> c)
  | c -> c

(* Enforce stack discipline per (pid, tid): ring overwrite can truncate a
   group's head, leaving End events whose Begin was dropped (discarded
   here) and — when a trace is written mid-span — Begin events with no
   End (closed here with a synthetic End at the group's last timestamp).
   The result is loadable by Perfetto/chrome://tracing without "unmatched
   event" degradation. *)
let repair_group (evs : event list) : event list =
  let out = ref [] and stack = ref [] and last_ts = ref 0.0 and last_seq = ref 0 in
  List.iter
    (fun e ->
      if e.ts > !last_ts then last_ts := e.ts;
      if e.seq > !last_seq then last_seq := e.seq;
      match e.ph with
      | Begin ->
          stack := e :: !stack;
          out := e :: !out
      | End -> (
          match !stack with
          | top :: rest when top.name = e.name ->
              stack := rest;
              out := e :: !out
          | _ -> (* orphan End: its Begin was overwritten *) ())
      | Instant | Counter -> out := e :: !out)
    evs;
  (* close unfinished spans, innermost first *)
  let closes =
    List.mapi
      (fun i b ->
        { b with ph = End; ts = !last_ts; seq = !last_seq + 1 + i; args = [] })
      !stack
  in
  List.rev !out @ closes

let events (t : t) : event list =
  Mutex.lock t.mutex;
  let evs = snapshot t in
  Mutex.unlock t.mutex;
  let sorted = List.stable_sort compare_events evs in
  (* group by (pid, tid) and repair each group *)
  let groups = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (e : event) ->
      let key = (e.pid, e.tid) in
      match Hashtbl.find_opt groups key with
      | Some l -> l := e :: !l
      | None ->
          Hashtbl.replace groups key (ref [ e ]);
          order := key :: !order)
    sorted;
  List.rev !order
  |> List.concat_map (fun key -> repair_group (List.rev !(Hashtbl.find groups key)))

(* ---- Chrome trace_event JSON ----------------------------------------- *)

let add_args (b : Buffer.t) (args : (string * float) list) : unit =
  Buffer.add_string b ",\"args\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%s" (Json.escape k) (Json.float v)))
    args;
  Buffer.add_char b '}'

(* Metadata naming a process or thread lane in the viewer. *)
let add_metadata (b : Buffer.t) ~(what : string) ~(pid : int) ~(tid : int) (name : string) :
    unit =
  Buffer.add_string b
    (Printf.sprintf "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
       what pid tid (Json.escape name))

let render (t : t) : string =
  let evs = events t in
  Mutex.lock t.mutex;
  let processes = Hashtbl.fold (fun pid name acc -> (pid, name) :: acc) t.processes [] in
  let threads = Hashtbl.fold (fun key name acc -> (key, name) :: acc) t.threads [] in
  Mutex.unlock t.mutex;
  let b = Buffer.create 65536 in
  Buffer.add_string b "[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string b ",\n"
  in
  List.iter
    (fun (pid, name) ->
      sep ();
      add_metadata b ~what:"process_name" ~pid ~tid:0 name)
    (List.sort compare processes);
  List.iter
    (fun ((pid, tid), name) ->
      sep ();
      add_metadata b ~what:"thread_name" ~pid ~tid name)
    (List.sort compare threads);
  List.iter
    (fun e ->
      sep ();
      Buffer.add_string b
        (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"holes\",\"ph\":\"%s\",\"pid\":%d,\"tid\":%d,\"ts\":%s"
           (Json.escape e.name) (phase_string e.ph) e.pid e.tid
           (Json.float (e.ts /. 1000.0)));
      if e.args <> [] || e.ph = Counter then add_args b e.args;
      Buffer.add_char b '}')
    evs;
  Buffer.add_string b "]\n";
  Buffer.contents b

let write (t : t) (path : string) : unit =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (render t))
