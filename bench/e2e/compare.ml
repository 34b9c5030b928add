(* holes_bench compare BASE_DIR HEAD_DIR: the paired comparison of two
   checkouts (for instance the parent commit and a change).

   For each workload it runs ten pairs of runs, one run of each checkout
   per pair, alternating which side goes first, through each checkout's
   own bench/e2e/run.sh.  Every run uses the default seed and the
   run_seconds of HEAD_DIR/BENCHMARK.json, so both the head's wins and the
   base's spread measure run-to-run variation only, never a change of
   inputs.  Then, for every end-to-end metric declared in
   HEAD_DIR/BENCHMARK.json, it prints both sides' medians and quartiles,
   the head's wins, and a verdict:

     improved    the head wins at least 9/10 of the pairs (ties count for
                 neither), the medians differ by more than the base's
                 spread between quartiles, and the head fails no more
                 operations than the base and every run of it is correct;
     unresolved  the base's spread is wider than the metric's bound and
                 not every head run reads better than every base run;
     regressed   the head's median is worse than the base's by more than
                 the bound;
     unchanged   otherwise. *)

let pairs = 10

type side = { runs : (string * float) list list; failed : int; incorrect : int }

let quartiles (xs : float list) : float * float * float =
  (Layers.quantile xs 0.25, Layers.quantile xs 0.5, Layers.quantile xs 0.75)

(* Run one checkout's benchmark and return the last line's JSON. *)
let run_side ~(dir : string) ~(args : string list) : Json.t =
  let script = Filename.concat dir "bench/e2e/run.sh" in
  if not (Sys.file_exists script) then failwith (script ^ " is missing");
  let ic = Unix.open_process_args_in "sh" (Array.of_list ("sh" :: script :: args)) in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "%s %s failed" script (String.concat " " args)));
  match List.rev (String.split_on_char '\n' (String.trim out)) with
  | last :: _ -> Json.of_string last
  | [] -> failwith (script ^ " printed nothing")

let metrics_of (j : Json.t) : (string * float) list =
  match Json.member "metrics" j with
  | Json.Obj l -> List.map (fun (k, v) -> (k, Json.to_num (Json.member "value" v))) l
  | _ -> failwith "result without metrics"

type bound = { name : string; unit_ : string; higher : bool; bound : float }

let bounds_of (benchmark : Json.t) : bound list =
  List.map
    (fun m ->
      {
        name = Json.to_str (Json.member "name" m);
        unit_ = Json.to_str (Json.member "unit" m);
        higher = Json.to_str (Json.member "better" m) = "higher";
        bound = Json.to_num (Json.member "bound" m);
      })
    (Json.to_list (Json.member "end_to_end" benchmark))

let verdict (b : bound) ~(gain_counts : bool) ~(base : float list) ~(head : float list) : string * int * int =
  let better x y = if b.higher then x > y else x < y in
  let pairs = List.combine base head in
  let wins = List.length (List.filter (fun (x, y) -> better y x) pairs) in
  let bq1, bmed, bq3 = quartiles base and _, hmed, _ = quartiles head in
  let spread = bq3 -. bq1 in
  let n = List.length pairs in
  let worse = (if b.higher then bmed -. hmed else hmed -. bmed) /. Float.abs bmed in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> better y x) base) head in
  let v =
    if gain_counts && 10 * wins >= 9 * n && Float.abs (hmed -. bmed) > spread && better hmed bmed then "improved"
    else if spread /. Float.abs bmed > b.bound && not all_better then "unresolved"
    else if worse > b.bound then "regressed"
    else "unchanged"
  in
  (v, wins, n)

let main (argv : string list) : int =
  let dirs = ref [] and only = ref [] in
  Arg.parse_argv ~current:(ref 0) (Array.of_list ("compare" :: argv))
    [ ("--workload", Arg.String (fun w -> only := w :: !only), "NAME compare only this workload (repeatable)") ]
    (fun d -> dirs := !dirs @ [ d ])
    "holes_bench.exe compare BASE_DIR HEAD_DIR [--workload NAME]...";
  let base_dir, head_dir =
    match !dirs with [ b; h ] -> (b, h) | _ -> raise (Arg.Bad "compare takes BASE_DIR and HEAD_DIR")
  in
  let benchmark = Json.read_file (Filename.concat head_dir "BENCHMARK.json") in
  let bounds = bounds_of benchmark in
  let args w =
    [ "--workload"; w; "--seed"; string_of_int Measure.default_seed; "--seconds";
      Printf.sprintf "%g" (Json.to_num (Json.member "run_seconds" benchmark)); "--trace"; "0" ]
  in
  let workloads = if !only = [] then Measure.workloads else List.rev !only in
  Printf.printf "%-13s %-16s %-34s %-34s %7s  %s\n" "workload" "metric" "base median [q1, q3]"
    "head median [q1, q3]" "wins" "verdict";
  List.iter
    (fun w ->
      let empty = { runs = []; failed = 0; incorrect = 0 } in
      let add side j =
        {
          runs = side.runs @ [ metrics_of j ];
          failed = side.failed + int_of_float (Json.to_num (Json.member "failed" j));
          incorrect = (side.incorrect + if Json.member "correct" j = Json.Bool true then 0 else 1);
        }
      in
      let base = ref empty and head = ref empty in
      for i = 0 to pairs - 1 do
        let run_base () = base := add !base (run_side ~dir:base_dir ~args:(args w)) in
        let run_head () = head := add !head (run_side ~dir:head_dir ~args:(args w)) in
        if i mod 2 = 0 then (run_base (); run_head ()) else (run_head (); run_base ())
      done;
      let gain_counts = !head.failed <= !base.failed && !head.incorrect = 0 in
      List.iter
        (fun b ->
          let values side = List.map (fun m -> try List.assoc b.name m with Not_found -> nan) side.runs in
          let bv = values !base and hv = values !head in
          let bq1, bmed, bq3 = quartiles bv and hq1, hmed, hq3 = quartiles hv in
          let v, wins, n = verdict b ~gain_counts ~base:bv ~head:hv in
          let cell m q1 q3 = Printf.sprintf "%.6g [%.6g, %.6g] %s" m q1 q3 b.unit_ in
          Printf.printf "%-13s %-16s %-34s %-34s %3d/%-3d  %s\n" w b.name (cell bmed bq1 bq3) (cell hmed hq1 hq3)
            wins n v)
        bounds;
      if not gain_counts then
        Printf.printf "%-13s head: %d failed operations (base %d), %d incorrect runs: no gain counts\n" w
          !head.failed !base.failed !head.incorrect)
    workloads;
  0
