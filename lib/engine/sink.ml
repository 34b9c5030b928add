(** Thread-safe results sink: one JSONL record per completed trial plus
    a live completed/total progress line on stderr.

    Workers call [record] concurrently as trials finish; a mutex orders
    the writes so every record lands on its own line.  Record order is
    completion order (scheduling-dependent); consumers that need the
    deterministic order sort by (config, profile, seed_index).  Records
    are flat, encoded with {!Holes_obs.Json}. *)

module Json = Holes_obs.Json

type t = {
  mutex : Mutex.t;
  oc : out_channel option;  (** JSONL output, if requested *)
  progress : bool;  (** render completed/total to stderr *)
  mutable planned : int;  (** grows as grids are planned *)
  mutable completed : int;
  mutable failed : int;
}

let create ?(path : string option) ?(progress = true) () : t =
  {
    mutex = Mutex.create ();
    oc = Option.map open_out path;
    progress;
    planned = 0;
    completed = 0;
    failed = 0;
  }

(** Announce [n] more jobs (a newly planned grid), growing the progress
    denominator. *)
let plan (t : t) (n : int) : unit =
  Mutex.lock t.mutex;
  t.planned <- t.planned + n;
  Mutex.unlock t.mutex

let completed (t : t) : int =
  Mutex.lock t.mutex;
  let c = t.completed in
  Mutex.unlock t.mutex;
  c

let render_progress (t : t) : unit =
  (* caller holds the mutex *)
  if t.progress then
    Printf.eprintf "\r[engine] %d/%d trials%s%!" t.completed t.planned
      (if t.failed > 0 then Printf.sprintf " (%d failed)" t.failed else "")

(** Record one finished trial.  Thread-safe; called from worker domains. *)
let record (t : t) ~(config : string) ~(profile : string) ~(seed : int) ~(seed_index : int)
    ~(worker : int) ~(duration_s : float) ~(outcome : string)
    ~(metrics : (string * float) list) : unit =
  Mutex.lock t.mutex;
  t.completed <- t.completed + 1;
  if outcome = "error" then t.failed <- t.failed + 1;
  (match t.oc with
  | None -> ()
  | Some oc ->
      let b = Buffer.create 256 in
      Buffer.add_string b
        (Printf.sprintf
           "{\"config\":\"%s\",\"profile\":\"%s\",\"seed\":%d,\"seed_index\":%d,\"worker\":%d,\"duration_s\":%s,\"outcome\":\"%s\",\"metrics\":{"
           (Json.escape config) (Json.escape profile) seed seed_index worker
           (Json.float duration_s) (Json.escape outcome));
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "\"%s\":%s" (Json.escape k) (Json.float v)))
        metrics;
      Buffer.add_string b "}}\n";
      Buffer.output_buffer oc b;
      flush oc);
  render_progress t;
  Mutex.unlock t.mutex

(** Finish the progress line and close the JSONL channel. *)
let close (t : t) : unit =
  Mutex.lock t.mutex;
  if t.progress && t.planned > 0 then prerr_newline ();
  (match t.oc with Some oc -> close_out oc | None -> ());
  Mutex.unlock t.mutex
