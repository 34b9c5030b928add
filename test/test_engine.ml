(* Tests for the parallel experiment engine: the fan-out's scheduling and
   exception isolation, deterministic job seeds, the JSONL sink, and the
   -j-independence contract (parallel outcomes bit-identical to
   sequential ones). *)

module Pool = Holes_engine.Pool
module Job = Holes_engine.Job
module Sink = Holes_engine.Sink
module Engine = Holes_engine.Engine
module R = Holes_exp.Runner
module Cfg = Holes.Config

let check = Alcotest.check

let contains (haystack : string) (needle : string) : bool =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---- pool ------------------------------------------------------------ *)

let test_pool_runs_all () =
  let n = 25 in
  let results = Pool.run_all ~domains:3 ~n (fun i -> i * i) in
  check Alcotest.int "one result per job" n (Array.length results);
  Array.iteri
    (fun i r ->
      match r.Pool.value with
      | Pool.Done v -> check Alcotest.int "result indexed by job" (i * i) v
      | Pool.Failed { exn; _ } -> Alcotest.failf "job %d failed: %s" i exn)
    results;
  Array.iter
    (fun r ->
      Alcotest.(check bool) "worker id in range" true (r.Pool.worker >= 0 && r.Pool.worker < 3))
    results;
  let inline = Pool.run_all ~domains:1 ~n:4 (fun i -> i) in
  Array.iter
    (fun r -> check Alcotest.int "one domain: the caller runs every job" 0 r.Pool.worker)
    inline

let test_pool_captures_exceptions () =
  let results =
    Pool.run_all ~domains:2 ~n:8 (fun i -> if i = 5 then failwith "trial crashed" else i)
  in
  Array.iteri
    (fun i r ->
      match (i, r.Pool.value) with
      | 5, Pool.Failed { exn; _ } ->
          Alcotest.(check bool) "exception text captured" true (contains exn "trial crashed")
      | 5, Pool.Done _ -> Alcotest.fail "job 5 should have failed"
      | _, Pool.Done v -> check Alcotest.int "other jobs unaffected" i v
      | _, Pool.Failed { exn; _ } -> Alcotest.failf "job %d failed: %s" i exn)
    results;
  (* an [on_done] that raises stops its own worker only: the others run
     every remaining job, and the exception surfaces after the join *)
  let ran = Atomic.make 0 in
  match
    Pool.run_all ~domains:2 ~n:8
      ~on_done:(fun i _ -> if i = 0 then failwith "sink broke")
      (fun _ -> Atomic.incr ran)
  with
  | _ -> Alcotest.fail "on_done's exception should be re-raised"
  | exception Failure msg ->
      check Alcotest.string "on_done's exception re-raised" "sink broke" msg;
      check Alcotest.int "every job ran before the re-raise" 8 (Atomic.get ran)

(* ---- job seeds ------------------------------------------------------- *)

let test_job_seeds_deterministic () =
  let spec i = { Job.cfg = Cfg.default; profile = Holes_workload.Dacapo.luindex; scale = 0.1; seed_index = i } in
  check Alcotest.int "seed is a pure function of the spec" (Job.seed (spec 0)) (Job.seed (spec 0));
  Alcotest.(check bool) "seed indices decorrelate" true (Job.seed (spec 0) <> Job.seed (spec 1));
  let other = { (spec 0) with Job.cfg = { Cfg.default with Cfg.failure_rate = 0.25 } } in
  Alcotest.(check bool) "configs decorrelate" true (Job.seed (spec 0) <> Job.seed other);
  Alcotest.(check bool) "seed non-negative" true (Job.seed (spec 0) >= 0)

(* ---- sink ------------------------------------------------------------ *)

let test_sink_jsonl_roundtrip () =
  let path = Filename.temp_file "holes_engine" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = Sink.create ~path ~progress:false () in
      let seeds = 4 in
      let specs =
        Engine.plan ~cfgs:[ Cfg.default ] ~profiles:[ Holes_workload.Dacapo.luindex ]
          ~scale:0.05 ~seeds
      in
      let trials =
        Engine.run ~jobs:2 ~sink
          ~metrics:(fun v -> [ ("value", float_of_int v); ("pi", 3.25) ])
          ~f:(fun spec ~seed:_ -> 10 + spec.Job.seed_index)
          specs
      in
      Sink.close sink;
      check Alcotest.int "all jobs ran" seeds (Array.length trials);
      check Alcotest.int "sink counted every job" seeds (Sink.completed sink);
      let lines =
        let ic = open_in path in
        let rec go acc = match input_line ic with
          | l -> go (l :: acc)
          | exception End_of_file -> close_in ic; List.rev acc
        in
        go []
      in
      check Alcotest.int "one JSONL line per job" seeds (List.length lines);
      List.iter
        (fun l ->
          Alcotest.(check bool) "line is a JSON object" true
            (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}');
          Alcotest.(check bool) "records the config" true (contains l "\"config\":\"S-IX-L256\"");
          Alcotest.(check bool) "records the outcome" true (contains l "\"outcome\":\"ok\"");
          Alcotest.(check bool) "records the metrics" true (contains l "\"pi\":3.25"))
        lines;
      (* every trial appears exactly once, whatever the completion order *)
      List.iter
        (fun i ->
          let tag = Printf.sprintf "\"seed_index\":%d," i in
          check Alcotest.int (Printf.sprintf "seed index %d appears once" i) 1
            (List.length (List.filter (fun l -> contains l tag) lines)))
        [ 0; 1; 2; 3 ])

(* ---- engine failure isolation --------------------------------------- *)

let test_engine_failed_job_reported () =
  let specs =
    Engine.plan ~cfgs:[ Cfg.default ] ~profiles:[ Holes_workload.Dacapo.luindex ] ~scale:0.05
      ~seeds:4
  in
  let trials =
    Engine.run ~jobs:2
      ~f:(fun spec ~seed:_ ->
        if spec.Job.seed_index = 2 then failwith "boom" else spec.Job.seed_index)
      specs
  in
  Array.iteri
    (fun i t ->
      match (i, t.Engine.outcome) with
      | 2, Pool.Failed { exn; _ } ->
          Alcotest.(check bool) "failure captured" true (contains exn "boom")
      | 2, Pool.Done _ -> Alcotest.fail "job 2 should have failed"
      | i, Pool.Done v -> check Alcotest.int "other jobs fine" i v
      | i, Pool.Failed { exn; _ } -> Alcotest.failf "job %d failed: %s" i exn)
    trials

(* ---- -j independence ------------------------------------------------- *)

(* Outcomes contain only plain data (floats, ints, strings, Config.t),
   so structural equality is the bit-identity the contract promises. *)
let test_parallel_equals_sequential () =
  let profiles = [ Holes_workload.Dacapo.luindex; Holes_workload.Dacapo.avrora ] in
  let cfgs = [ Cfg.default; { Cfg.default with Cfg.failure_rate = 0.25 } ] in
  let outcomes jobs =
    R.clear_cache ();
    let params = { R.scale = 0.05; seeds = 2; jobs } in
    R.prefetch ~params ~cfgs ~profiles ();
    List.concat_map
      (fun cfg -> List.map (fun profile -> R.run ~params ~cfg ~profile ()) profiles)
      cfgs
  in
  let seq = outcomes 1 in
  let par = outcomes 4 in
  R.clear_cache ();
  List.iter2
    (fun (a : R.outcome) (b : R.outcome) ->
      Alcotest.(check bool)
        (Printf.sprintf "-j 1 = -j 4 for %s/%s" (Cfg.name a.R.cfg) a.R.profile)
        true (a = b))
    seq par

let suite =
  [
    ("pool runs all jobs", `Quick, test_pool_runs_all);
    ("pool captures exceptions", `Quick, test_pool_captures_exceptions);
    ("job seeds deterministic", `Quick, test_job_seeds_deterministic);
    ("sink JSONL roundtrip", `Quick, test_sink_jsonl_roundtrip);
    ("engine reports failed jobs", `Quick, test_engine_failed_job_reported);
    ("-j 1 equals -j 4", `Slow, test_parallel_equals_sequential);
  ]
