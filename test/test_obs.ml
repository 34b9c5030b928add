(* Observability tests: histogram bucket math, Chrome-trace shape from
   a real device-backend trial (balanced spans, monotone lanes, events
   from all pipeline layers), and the zero-overhead guarantee — the same
   trial with tracing disabled yields bit-identical metrics. *)

module Stats = Holes_obs.Stats
module Trace = Holes_obs.Trace
module Cfg = Holes.Config
module Pcm = Holes_pcm
module Runner = Holes_exp.Runner
module Job = Holes_engine.Job

let check = Alcotest.check

let device_cfg ?(endurance = 5.0) () : Cfg.t =
  let d = Cfg.default_device in
  let wear = { d.Cfg.wear with Pcm.Wear.mean_endurance = endurance } in
  { Cfg.default with Cfg.backend = Cfg.Device { d with Cfg.wear } }

let traced_spec () : Job.spec =
  { Job.cfg = device_cfg (); profile = Holes_workload.Dacapo.pmd; scale = 0.2; seed_index = 0 }

(* ------------------------------------------------------------------ *)
(* Stats: log2-bucket histograms                                       *)
(* ------------------------------------------------------------------ *)

(* Bucket b (for b >= 1) covers [2^(b-1), 2^b); bucket 0 is v < 1. *)
let test_hist_buckets () =
  check Alcotest.int "b(0)" 0 (Stats.bucket_of 0.0);
  check Alcotest.int "b(0.5)" 0 (Stats.bucket_of 0.5);
  check Alcotest.int "b(1)" 1 (Stats.bucket_of 1.0);
  check Alcotest.int "b(1.99)" 1 (Stats.bucket_of 1.99);
  check Alcotest.int "b(2)" 2 (Stats.bucket_of 2.0);
  check Alcotest.int "b(3.99)" 2 (Stats.bucket_of 3.99);
  check Alcotest.int "b(1024)" 11 (Stats.bucket_of 1024.0);
  check Alcotest.bool "huge value stays in range" true
    (Stats.bucket_of 1.0e300 < Stats.nbuckets)

let test_hist_observe () =
  let h = Stats.hist () in
  check Alcotest.int "empty count" 0 (Stats.count h);
  List.iter (Stats.observe h) [ 0.0; 0.5; 1.0; 1.5; 2.0; 3.9; 4.0; 1000.0 ];
  check Alcotest.int "count" 8 (Stats.count h);
  check (Alcotest.float 1e-9) "total" 1012.9 (Stats.total h);
  check (Alcotest.float 1e-9) "mean" (1012.9 /. 8.0) (Stats.mean h);
  check (Alcotest.float 1e-9) "min" 0.0 (Stats.min_value h);
  check (Alcotest.float 1e-9) "max" 1000.0 (Stats.max_value h)

(* [observe_int h n] leaves the histogram [observe h (float_of_int n)]
   leaves, bit for bit: the bucket's bit length must match [frexp]'s
   exponent at every power of two and its neighbours, and the sum must
   take the same additions in the same order. *)
let test_hist_observe_int () =
  let rng = Holes_stdx.Xrng.of_seed 3 in
  let ints =
    [ min_int; -5; -1; 0; 1; 2; 3; max_int; (1 lsl 53) - 1; 1 lsl 53; (1 lsl 53) + 1 ]
    @ List.concat_map (fun k -> [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1 ]) (List.init 62 Fun.id)
    @ List.init 1000 (fun _ -> Holes_stdx.Xrng.int rng 1_000_000_000)
  in
  let a = Stats.hist () and b = Stats.hist () in
  List.iter
    (fun n ->
      Stats.observe a (float_of_int n);
      Stats.observe_int b n;
      if Stats.bucket_of (float_of_int n) <> Stats.bucket_of_int n then
        Alcotest.failf "bucket of %d: %d, observe_int's %d" n (Stats.bucket_of (float_of_int n))
          (Stats.bucket_of_int n))
    ints;
  check Alcotest.bool "the same histogram" true (a = b)

let test_hist_quantile () =
  let h = Stats.hist () in
  for i = 1 to 100 do
    Stats.observe h (float_of_int i)
  done;
  (* quantiles are bucket-resolution estimates, clamped to [min, max] *)
  let q0 = Stats.quantile h 0.0 and q50 = Stats.quantile h 0.5 and q100 = Stats.quantile h 1.0 in
  check Alcotest.bool "q0 >= min" true (q0 >= Stats.min_value h);
  check Alcotest.bool "q100 <= max" true (q100 <= Stats.max_value h);
  check Alcotest.bool "quantile monotone" true (q0 <= q50 && q50 <= q100);
  (* p50 of 1..100 must land within the enclosing power-of-two bucket *)
  check Alcotest.bool "p50 plausible" true (q50 >= 32.0 && q50 <= 128.0)

(* Sub-bucket interpolation against a sorted-array reference: the
   rank-based reference quantile is sorted.(ceil(q*n) - 1); the
   interpolated estimate must stay inside the reference value's log2
   bucket (error < one bucket width), be monotone in q, and hit the
   exact max at q = 1. *)
let test_hist_quantile_interp () =
  let reference (xs : float array) (q : float) : float =
    let n = Array.length xs in
    let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
    xs.(rank - 1)
  in
  let check_against (name : string) (xs : float array) : unit =
    Array.sort compare xs;
    let h = Stats.hist () in
    Array.iter (Stats.observe h) xs;
    check (Alcotest.float 1e-9)
      (name ^ ": q=1 is the exact max")
      (Stats.max_value h)
      (Stats.quantile ~interp:true h 1.0);
    List.iter
      (fun q ->
        let est = Stats.quantile ~interp:true h q in
        let ref_v = reference xs q in
        check Alcotest.bool
          (Printf.sprintf "%s: q=%.3f within observed range" name q)
          true
          (est >= Stats.min_value h && est <= Stats.max_value h);
        (* same bucket as the reference rank => error < one bucket width *)
        let b = Stats.bucket_of ref_v in
        let lo = if b = 0 then 0.0 else Float.ldexp 1.0 (b - 1) in
        let hi = Float.ldexp 1.0 b in
        check Alcotest.bool
          (Printf.sprintf "%s: q=%.3f within reference bucket [%g,%g)" name q lo hi)
          true
          (est >= lo && est <= hi))
      [ 0.0; 0.25; 0.5; 0.9; 0.99; 0.999 ];
    (* monotone in q *)
    let prev = ref neg_infinity in
    List.iter
      (fun q ->
        let est = Stats.quantile ~interp:true h q in
        check Alcotest.bool (name ^ ": monotone in q") true (est >= !prev);
        prev := est)
      [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 0.95; 0.99; 1.0 ]
  in
  check_against "uniform 1..1000" (Array.init 1000 (fun i -> float_of_int (i + 1)));
  check_against "powers-ish"
    (Array.init 500 (fun i -> Float.ldexp 1.0 (i mod 12) *. (1.0 +. (float_of_int i /. 997.0))));
  check_against "heavy tail"
    (Array.init 300 (fun i ->
         let x = float_of_int (i + 1) /. 300.0 in
         1.0 /. ((1.0 -. (0.999 *. x)) ** 2.0)));
  check_against "single value" (Array.make 10 42.0);
  (* interpolation strictly refines: the estimate never exceeds the
     historical bucket-upper-bound estimator *)
  let h = Stats.hist () in
  for i = 1 to 100 do
    Stats.observe h (float_of_int i)
  done;
  List.iter
    (fun q ->
      check Alcotest.bool "interp <= bucket upper bound" true
        (Stats.quantile ~interp:true h q <= Stats.quantile h q))
    [ 0.1; 0.5; 0.9; 0.99; 1.0 ]

let test_hist_merge () =
  let a = Stats.hist () and b = Stats.hist () in
  List.iter (Stats.observe a) [ 1.0; 2.0 ];
  List.iter (Stats.observe b) [ 100.0; 200.0 ];
  let m = Stats.merged [ a; b ] in
  check Alcotest.int "merged count" 4 (Stats.count m);
  check (Alcotest.float 1e-9) "merged total" 303.0 (Stats.total m);
  check (Alcotest.float 1e-9) "merged min" 1.0 (Stats.min_value m);
  check (Alcotest.float 1e-9) "merged max" 200.0 (Stats.max_value m);
  (* merged built its own hist: the sources are untouched *)
  check Alcotest.int "source a intact" 2 (Stats.count a);
  let c = Stats.copy a in
  Stats.observe c 7.0;
  check Alcotest.int "copy is independent" 2 (Stats.count a)

let test_hist_fields () =
  let h = Stats.hist () in
  List.iter (Stats.observe h) [ 2.0; 4.0; 8.0 ];
  let fields = Stats.to_fields ~prefix:"pause_ns" h in
  List.iter
    (fun k ->
      check Alcotest.bool (k ^ " present") true (List.mem_assoc k fields))
    [ "pause_ns_count"; "pause_ns_mean"; "pause_ns_p50"; "pause_ns_p99"; "pause_ns_max" ];
  check (Alcotest.float 1e-9) "count field" 3.0 (List.assoc "pause_ns_count" fields);
  check Alcotest.bool "summary non-empty" true (String.length (Stats.summary_string h) > 0)

(* ------------------------------------------------------------------ *)
(* A minimal JSON reader, enough to validate [Trace.render] output     *)
(* ------------------------------------------------------------------ *)

exception Bad_json of string

let validate_json (s : string) : unit =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let string_lit () =
    expect '"';
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            pos := !pos + 2;
            go ()
        | _ ->
            incr pos;
            go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    if !pos = start then fail "expected number"
  in
  let literal w =
    let l = String.length w in
    if !pos + l <= n && String.sub s !pos l = w then pos := !pos + l else fail ("expected " ^ w)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then incr pos
        else
          let rec members () =
            skip_ws ();
            string_lit ();
            skip_ws ();
            expect ':';
            value ();
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                members ()
            | Some '}' -> incr pos
            | _ -> fail "expected , or } in object"
          in
          members ()
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then incr pos
        else
          let rec elements () =
            value ();
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                elements ()
            | Some ']' -> incr pos
            | _ -> fail "expected , or ] in array"
          in
          elements ()
    | Some '"' -> string_lit ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some _ -> number ()
    | None -> fail "unexpected end of input"
  in
  value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

(* ------------------------------------------------------------------ *)
(* Trace shape from a real traced device trial                         *)
(* ------------------------------------------------------------------ *)

(* One low-endurance device trial through the engine job body, exactly
   as [holes_run --trace] drives it. *)
let traced_events () : Trace.t * Trace.event list =
  let tr = Trace.create () in
  let spec = traced_spec () in
  let (_ : Runner.raw_trial) =
    Runner.trial_of_spec ~params:{ Runner.quick with Runner.tracer = Some tr } spec
      ~seed:(Job.seed spec)
  in
  (tr, Trace.events tr)

let test_trace_layers () =
  let tr, evs = traced_events () in
  check Alcotest.bool "trace non-empty" true (evs <> []);
  check Alcotest.int "nothing dropped" 0 (Trace.dropped tr);
  let has tid = List.exists (fun (e : Trace.event) -> e.Trace.tid = tid) evs in
  (* the acceptance bar: spans/instants from >= 4 pipeline layers *)
  check Alcotest.bool "engine lane" true (has Trace.tid_engine);
  check Alcotest.bool "core GC lane" true (has Trace.tid_gc);
  check Alcotest.bool "osal lane" true (has Trace.tid_osal);
  check Alcotest.bool "pcm lane" true (has Trace.tid_pcm)

(* The tier a mid-run switch brings up traces through the node's view,
   as the boot-time tier does: a traced device VM that turns migration
   off and on again records promotions after the switch. *)
let test_trace_promotes_after_switch () =
  let tr = Trace.create () in
  let d = Cfg.default_device in
  let migrate = { Pcm.Hybrid.migrate_epoch = Some 512; caram_ways = None } in
  let cfg =
    {
      Cfg.default with
      Cfg.backend = Cfg.Device { d with Cfg.wear = Pcm.Wear.default_params };
      hybrid = migrate;
    }
  in
  let vm = Holes.Vm.create ~cfg ~tracer:(Trace.view tr ~pid:1) ~min_heap_bytes:(1 lsl 20) () in
  let rng = Holes_stdx.Xrng.of_seed 4 in
  let live = Array.make 512 (-1) in
  let alloc n =
    for i = 1 to n do
      let slot = i land 511 in
      if live.(slot) >= 0 then Holes.Vm.kill vm live.(slot);
      live.(slot) <- Holes.Vm.alloc vm ~size:(16 + Holes_stdx.Xrng.int rng 240) ()
    done
  in
  let promotes () =
    List.length (List.filter (fun (e : Trace.event) -> e.Trace.name = "page_promote") (Trace.events tr))
  in
  alloc 20_000;
  let booted = promotes () in
  check Alcotest.bool "the boot-time tier traces its promotions" true (booted > 0);
  Holes.Vm.set_hybrid vm Pcm.Hybrid.none;
  Holes.Vm.set_hybrid vm migrate;
  alloc 20_000;
  check Alcotest.int "nothing dropped" 0 (Trace.dropped tr);
  check Alcotest.bool "the switched-on tier traces its promotions" true (promotes () > booted)

(* Per (pid, tid) lane: B/E properly nested with matching names, and
   timestamps non-decreasing in emission order. *)
let test_trace_well_formed () =
  let _, evs = traced_events () in
  let lanes : (int * int, Trace.event list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.event) ->
      let key = (e.Trace.pid, e.Trace.tid) in
      match Hashtbl.find_opt lanes key with
      | Some l -> l := e :: !l
      | None -> Hashtbl.replace lanes key (ref [ e ]))
    evs;
  Hashtbl.iter
    (fun (pid, tid) l ->
      let lane = List.rev !l in
      let where = Printf.sprintf "pid=%d tid=%d" pid tid in
      let stack = ref [] in
      let last_ts = ref neg_infinity in
      List.iter
        (fun (e : Trace.event) ->
          check Alcotest.bool (where ^ " ts monotone") true (e.Trace.ts >= !last_ts);
          last_ts := e.Trace.ts;
          match e.Trace.ph with
          | Trace.Begin -> stack := e.Trace.name :: !stack
          | Trace.End -> (
              match !stack with
              | top :: rest ->
                  check Alcotest.string (where ^ " E matches B") top e.Trace.name;
                  stack := rest
              | [] -> Alcotest.fail (where ^ ": E without matching B: " ^ e.Trace.name))
          | Trace.Instant | Trace.Counter -> ())
        lane;
      check Alcotest.int (where ^ " spans all closed") 0 (List.length !stack))
    lanes

let test_trace_render_json () =
  let tr, _ = traced_events () in
  let json = Trace.render tr in
  (match validate_json json with
  | () -> ()
  | exception Bad_json msg -> Alcotest.fail ("render is not valid JSON: " ^ msg));
  (* the JSON-array flavour of the trace_event format *)
  check Alcotest.bool "trace_event array" true
    (String.length json >= 2 && json.[0] = '[');
  (* the Perfetto-facing fields must appear somewhere in the payload *)
  List.iter
    (fun needle ->
      let present =
        let nl = String.length needle and jl = String.length json in
        let rec at i = i + nl <= jl && (String.sub json i nl = needle || at (i + 1)) in
        at 0
      in
      check Alcotest.bool (needle ^ " in payload") true present)
    [ "\"ph\""; "\"process_name\""; "\"thread_name\""; "full_gc" ]

let test_trace_ring_drops_oldest () =
  let tr = Trace.create ~capacity:8 () in
  let v = Trace.view tr ~pid:1 in
  for i = 1 to 20 do
    Trace.instant v ~tid:0 (Printf.sprintf "i%d" i)
  done;
  check Alcotest.int "dropped count" 12 (Trace.dropped tr);
  let evs = Trace.events tr in
  check Alcotest.int "ring keeps capacity" 8 (List.length evs);
  check Alcotest.string "oldest evicted first" "i13"
    (match evs with e :: _ -> e.Trace.name | [] -> "")

(* ------------------------------------------------------------------ *)
(* Zero overhead: tracing off is bit-identical to tracing on           *)
(* ------------------------------------------------------------------ *)

let test_disabled_tracing_bit_identical () =
  let spec = traced_spec () in
  let seed = Job.seed spec in
  let plain = Runner.trial_of_spec ~params:Runner.quick spec ~seed in
  let traced =
    Runner.trial_of_spec ~params:{ Runner.quick with Runner.tracer = Some (Trace.create ()) } spec
      ~seed
  in
  check Alcotest.bool "completion agrees" plain.Runner.r_completed traced.Runner.r_completed;
  check Alcotest.bool "metrics bit-identical" true
    (plain.Runner.r_metrics = traced.Runner.r_metrics);
  check Alcotest.int "borrowed identical" plain.Runner.r_borrowed traced.Runner.r_borrowed;
  (* and therefore the JSONL payload is identical field for field *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.float 0.0)))
    "sink fields identical"
    (Runner.sink_metrics plain) (Runner.sink_metrics traced)

let suite =
  [
    Alcotest.test_case "hist bucket boundaries" `Quick test_hist_buckets;
    Alcotest.test_case "hist observe/count/mean" `Quick test_hist_observe;
    Alcotest.test_case "hist observe_int is observe of the float" `Quick test_hist_observe_int;
    Alcotest.test_case "hist quantile clamps" `Quick test_hist_quantile;
    Alcotest.test_case "hist quantile interpolation vs reference" `Quick
      test_hist_quantile_interp;
    Alcotest.test_case "hist merge and copy" `Quick test_hist_merge;
    Alcotest.test_case "hist to_fields" `Quick test_hist_fields;
    Alcotest.test_case "trace covers 4+ layers" `Quick test_trace_layers;
    Alcotest.test_case "trace lanes well-formed" `Quick test_trace_well_formed;
    Alcotest.test_case "trace renders valid JSON" `Quick test_trace_render_json;
    Alcotest.test_case "trace ring drops oldest" `Quick test_trace_ring_drops_oldest;
    Alcotest.test_case "trace keeps promotions after a tiering switch" `Quick
      test_trace_promotes_after_switch;
    Alcotest.test_case "tracing off is bit-identical" `Quick test_disabled_tracing_bit_identical;
  ]
