(* The traced run's probe: every call the benchmark makes into the
   runtime is timed from outside on the host clock (Clock.now_ns) and on
   the virtual clock (the VM's Cost.total_ns delta), and classified by
   which public counters moved during it:

     retire   Metrics.dynamic_failures moved (a line was retired)
     full     full_gcs moved
     nursery  nursery_gcs moved
     fast     none of them moved

   Fast calls are only summed (per class), so tracing millions of calls
   stays in constant memory; every other call also becomes one span.
   Spans are kept in memory and written out as a Chrome trace at exit. *)

module Metrics = Holes.Metrics

(* call classes *)
let alloc_fast = 0
let write_fast = 1
let kill = 2
let nursery = 3
let full = 4
let retire = 5
let collect = 6
let nclasses = 7
let class_names = [| "alloc"; "write_ref"; "kill"; "nursery"; "full"; "retire"; "collect" |]

type span = {
  name : string;
  cls : int;  (** call class, or -1 for a structural span (cell, round, shard) *)
  tid : int;  (** Chrome-trace lane *)
  start_ns : int;
  dur_ns : int;
  virt_ns : float;
  args : (string * float) list;
}

type t = {
  count : int array;
  host_ns : int array;
  virt_ns : float array;
  mutable spans : span list;  (** newest first *)
  mutable lane : int;  (** lane of the cell being replayed *)
  origin_ns : int;
}

let create () : t =
  {
    count = Array.make nclasses 0;
    host_ns = Array.make nclasses 0;
    virt_ns = Array.make nclasses 0.0;
    spans = [];
    lane = 1;
    origin_ns = Clock.now_ns ();
  }

let add_span (p : t) (s : span) : unit = p.spans <- s :: p.spans

(* A structural span (workload, cell, round): [f] runs inside it. *)
let span (p : t) ?(tid = 0) (name : string) (f : unit -> 'a) : 'a =
  let t0 = Clock.now_ns () in
  let finish () =
    let tid = if tid = 0 then p.lane else tid in
    add_span p { name; cls = -1; tid; start_ns = t0; dur_ns = Clock.now_ns () - t0; virt_ns = 0.0; args = [] }
  in
  Fun.protect ~finally:finish f

(* Add a call of class [cls] that started at [t0] and ended now, and
   moved the virtual clock by [dv]; every class but the per-call fast
   ones also gets a span. *)
let account (p : t) ~(cls : int) ~(t0 : int) ~(dv : float) : unit =
  let t1 = Clock.now_ns () in
  p.count.(cls) <- p.count.(cls) + 1;
  p.host_ns.(cls) <- p.host_ns.(cls) + (t1 - t0);
  p.virt_ns.(cls) <- p.virt_ns.(cls) +. dv;
  if cls <> alloc_fast && cls <> write_fast && cls <> kill then
    add_span p { name = class_names.(cls); cls; tid = p.lane; start_ns = t0; dur_ns = t1 - t0; virt_ns = dv; args = [] }

(* Account one call that started at host time [t0] and virtual time [v0]
   with the counters [df0]/[f0]/[n0] read just before it; [fast] is its
   class if none of them moved. *)
let finish (p : t) ~(fast : int) (m : Metrics.t) ~(cost : Holes.Cost.t) ~df0 ~f0 ~n0 ~t0 ~v0 :
    unit =
  let cls =
    if m.Metrics.dynamic_failures <> df0 then retire
    else if m.Metrics.full_gcs <> f0 then full
    else if m.Metrics.nursery_gcs <> n0 then nursery
    else fast
  in
  account p ~cls ~t0 ~dv:(Holes.Cost.total_ns cost -. v0)

(* An explicitly requested call of a fixed class (kill, end-of-round collect). *)
let timed_call (p : t) ~(cls : int) ~(cost : Holes.Cost.t) (f : unit -> unit) : unit =
  let v0 = Holes.Cost.total_ns cost in
  let t0 = Clock.now_ns () in
  Fun.protect ~finally:(fun () -> account p ~cls ~t0 ~dv:(Holes.Cost.total_ns cost -. v0)) f

let total_host_ns (p : t) : int = Array.fold_left ( + ) 0 p.host_ns
let total_virt_ns (p : t) : float = Array.fold_left ( +. ) 0.0 p.virt_ns

(* Host durations (ms) of the spans of class [cls]. *)
let span_ms (p : t) ~(cls : int) : float list =
  List.filter_map
    (fun s -> if s.cls = cls then Some (float_of_int s.dur_ns *. 1e-6) else None)
    p.spans

(* The [q]-quantile of a sample, interpolated between order statistics at
   rank q(n+1) and clamped to the extremes: Python's
   statistics.quantiles "exclusive" method, so medians and quartiles here
   match the ones the benchmark is judged by.  0 when empty. *)
let quantile (xs : float list) (q : float) : float =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n + 1) in
    let j = int_of_float pos in
    if j < 1 then a.(0)
    else if j >= n then a.(n - 1)
    else a.(j - 1) +. ((pos -. float_of_int j) *. (a.(j) -. a.(j - 1)))

(* Per-class metrics, [layer.class.metric] names: count, mean host ns,
   mean virtual ns; GC classes add host total/p99 (ms) and virtual ms. *)
let class_metrics (p : t) : (string * float) list =
  let f = float_of_int in
  let per_call cls v = if p.count.(cls) = 0 then 0.0 else v /. f p.count.(cls) in
  let call_class prefix cls =
    [
      (prefix ^ ".count", f p.count.(cls));
      (prefix ^ ".host_ns", per_call cls (f p.host_ns.(cls)));
    ]
  in
  let gc_class prefix cls =
    [
      (prefix ^ ".count", f p.count.(cls));
      (prefix ^ ".host_ms", f p.host_ns.(cls) *. 1e-6);
      (prefix ^ ".host_p99_ms", quantile (span_ms p ~cls) 0.99);
      (prefix ^ ".virt_ms", p.virt_ns.(cls) *. 1e-6);
    ]
  in
  call_class "vm.alloc" alloc_fast
  @ [ ("vm.alloc.virt_ns", per_call alloc_fast p.virt_ns.(alloc_fast)) ]
  @ call_class "vm.write_ref" write_fast
  @ call_class "vm.kill" kill
  @ gc_class "immix.nursery" nursery
  @ gc_class "immix.full" full
  @ gc_class "immix.retire" retire
  @ gc_class "immix.collect" collect

(* Chrome trace ("X" complete events, microsecond timestamps). *)
let write_chrome (p : t) ~(path : string) ~(process : string) : unit =
  let ev (s : span) =
    Json.Obj
      ([
         ("name", Json.Str s.name);
         ("ph", Json.Str "X");
         ("pid", Json.Num 1.0);
         ("tid", Json.Num (float_of_int s.tid));
         ("ts", Json.Num (float_of_int (s.start_ns - p.origin_ns) /. 1e3));
         ("dur", Json.Num (float_of_int s.dur_ns /. 1e3));
       ]
      @
      if s.cls < 0 && s.args = [] then []
      else
        [
          ( "args",
            Json.Obj
              (List.map (fun (k, v) -> (k, Json.Num v)) s.args
              @ if s.cls < 0 then [] else [ ("virt_ns", Json.Num s.virt_ns) ]) );
        ])
  in
  let meta =
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Num 1.0);
        ("args", Json.Obj [ ("name", Json.Str process) ]);
      ]
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\": [\n";
      output_string oc (Json.to_string meta);
      List.iter
        (fun s ->
          output_string oc ",\n";
          output_string oc (Json.to_string (ev s)))
        (List.rev p.spans);
      output_string oc "\n]}\n")
