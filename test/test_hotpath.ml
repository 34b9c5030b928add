(* Property tests for the word-level hot paths (DESIGN.md §9): every
   packed-word operation is replayed against a naive per-bit reference
   on thousands of seeded random states, and the experiment pipeline is
   pinned to a committed golden snapshot — the representation change
   must be invisible in both results and the charged cost model.

   To regenerate the golden after an intentional results change (see
   [check_golden]):

     HOLES_UPDATE_GOLDEN=test/golden dune exec test/test_main.exe -- test hotpath *)

module B = Holes_stdx.Bitset
module Rng = Holes_stdx.Xrng
module Block = Holes_heap.Block
module R = Holes_exp.Runner
module Sink = Holes_engine.Sink
module Cfg = Holes.Config

let check = Alcotest.check

(* ---- naive per-bit reference ----------------------------------------- *)

let naive_next_set (a : bool array) (from : int) : int option =
  let n = Array.length a in
  let rec go i = if i >= n then None else if a.(i) then Some i else go (i + 1) in
  go (max 0 from)

let naive_next_clear (a : bool array) (from : int) : int option =
  let n = Array.length a in
  let rec go i = if i >= n then None else if a.(i) then go (i + 1) else Some i in
  go (max 0 from)

(* end (exclusive) of the run of set bits starting at [i] *)
let run_end (a : bool array) (i : int) : int =
  let n = Array.length a in
  let rec go i = if i < n && a.(i) then go (i + 1) else i in
  go i

let naive_next_set_run (a : bool array) (from : int) : (int * int) option =
  match naive_next_set a from with
  | None -> None
  | Some s -> Some (s, run_end a (s + 1))

let naive_find_set_run (a : bool array) ~(from : int) ~(min_len : int) :
    (int * int) option =
  let n = Array.length a in
  let rec go i =
    if i >= n then None
    else if a.(i) then
      let e = run_end a i in
      if e - i >= min_len then Some (i, e) else go e
    else go (i + 1)
  in
  go (max 0 from)

let naive_count (a : bool array) : int =
  Array.fold_left (fun acc v -> if v then acc + 1 else acc) 0 a

let naive_count_runs (a : bool array) : int =
  let runs = ref 0 in
  Array.iteri (fun i v -> if v && (i = 0 || not a.(i - 1)) then incr runs) a;
  !runs

let naive_subset (a : bool array) (b : bool array) : bool =
  let ok = ref true in
  Array.iteri (fun i v -> if v && not b.(i) then ok := false) a;
  !ok

(* ---- bitset primitives vs reference ---------------------------------- *)

let opt_pair = Alcotest.(option (pair int int))

let test_bitset_vs_naive () =
  let rng = Rng.of_seed 0xb175 in
  (* word-boundary lengths get extra weight: that is where packed-word
     code goes wrong *)
  let edge_lens = [| 1; 2; 62; 63; 64; 65; 125; 126; 127; 189; 252; 315 |] in
  for case = 1 to 12_000 do
    let len =
      if case land 3 = 0 then edge_lens.(Rng.int rng (Array.length edge_lens))
      else 1 + Rng.int rng 320
    in
    let density = Rng.float rng in
    let a = Array.init len (fun _ -> Rng.float rng < density) in
    let t = B.of_bool_array a in
    (* point mutations exercise set/clear, not just of_bool_array *)
    for _ = 1 to 3 do
      let i = Rng.int rng len in
      let v = Rng.bool rng in
      a.(i) <- v;
      if v then B.set t i else B.clear t i
    done;
    let from = Rng.int rng (len + 3) - 1 in
    let min_len = 1 + Rng.int rng 130 in
    check Alcotest.(option int) "next_set" (naive_next_set a from) (B.next_set t from);
    check Alcotest.(option int) "next_clear" (naive_next_clear a from) (B.next_clear t from);
    check opt_pair "next_set_run" (naive_next_set_run a from) (B.next_set_run t from);
    check opt_pair "find_set_run"
      (naive_find_set_run a ~from ~min_len)
      (B.find_set_run t ~from ~min_len);
    check Alcotest.int "count" (naive_count a) (B.count t);
    check Alcotest.int "count_runs" (naive_count_runs a) (B.count_runs t);
    (* subset/equal: a perturbed copy is a superset half the time *)
    let b_arr = Array.copy a in
    if Rng.bool rng then
      for _ = 1 to 2 do b_arr.(Rng.int rng len) <- true done
    else begin
      let i = Rng.int rng len in
      b_arr.(i) <- not b_arr.(i)
    end;
    let b = B.of_bool_array b_arr in
    check Alcotest.bool "subset" (naive_subset a b_arr) (B.subset t b);
    check Alcotest.bool "equal" (a = b_arr) (B.equal t b)
  done

(* ---- block hole search vs reference ---------------------------------- *)

(* Random blocks with random failure bitmaps and churning single-line
   objects; [find_hole] (including the charged [lines_examined]) must
   match a per-bit scan of a mirrored free map at every step — in
   particular the [hole_bound] fast path may never reject a request a
   real scan would satisfy. *)
let test_find_hole_vs_naive () =
  let rng = Rng.of_seed 0x401e in
  let line_sizes = [| 64; 128; 256 |] in
  for _case = 1 to 400 do
    let line_size = line_sizes.(Rng.int rng (Array.length line_sizes)) in
    let fail_p = Rng.float rng *. 0.15 in
    let lines_per_page = Holes_pcm.Geometry.lines_per_page in
    let bitmaps =
      Array.init Holes_heap.Units.pages_per_block (fun _ ->
          let b = B.create lines_per_page in
          for i = 0 to lines_per_page - 1 do
            if Rng.float rng < fail_p then B.set b i
          done;
          b)
    in
    let blk =
      Block.create ~tbl:(Block.table_create ()) ~index:0 ~base:0 ~line_size
        ~pages:(Array.init Holes_heap.Units.pages_per_block Fun.id)
        ~page_bitmap:(fun id -> bitmaps.(id))
    in
    let nlines = blk.Block.nlines in
    let free = Array.init nlines (fun l -> Block.line_state blk l = Block.Free) in
    let placed = ref [] in
    for _q = 1 to 30 do
      (* churn: place an object on a free line, reclaim one, or fail a
         free line — keeping the mirror in lockstep *)
      (match Rng.int rng 4 with
      | 0 -> (
          match naive_next_set free (Rng.int rng nlines) with
          | Some l ->
              Block.add_object_lines blk ~addr:(l * line_size) ~size:line_size;
              free.(l) <- false;
              placed := l :: !placed
          | None -> ())
      | 1 -> (
          match !placed with
          | l :: rest ->
              Block.remove_object_lines blk ~addr:(l * line_size) ~size:line_size;
              free.(l) <- true;
              placed := rest
          | [] -> ())
      | 2 -> (
          match naive_next_set free (Rng.int rng nlines) with
          | Some l ->
              (match Block.fail_line blk ~line:l with
              | `Was_free -> ()
              | r ->
                  Alcotest.failf "fail_line on free line %d reported %s" l
                    (match r with `Was_live -> "live" | _ -> "failed"));
              free.(l) <- false
          | None -> ())
      | _ -> ());
      let from_line = Rng.int rng (nlines + 3) - 1 in
      let min_bytes = 1 + Rng.int rng (12 * line_size) in
      let needed = (min_bytes + line_size - 1) / line_size in
      let expect =
        match naive_find_set_run free ~from:(max 0 from_line) ~min_len:needed with
        | None -> None
        | Some (s, e) -> Some (s, e, e - max 0 from_line)
      in
      check
        Alcotest.(option (triple int int int))
        "find_hole" expect
        (Block.find_hole blk ~from_line ~min_bytes);
      check Alcotest.int "count_holes" (naive_count_runs free) (Block.count_holes blk)
    done
  done

(* ---- bump fast path vs scan-per-refill reference ---------------------- *)

let naive_longest_free_run (a : bool array) : int =
  let best = ref 0 and cur = ref 0 in
  Array.iter
    (fun v ->
      if v then begin
        incr cur;
        if !cur > !best then best := !cur
      end
      else cur := 0)
    a;
  !best

let make_failed_block (rng : Rng.t) ~(line_size : int) ~(fail_p : float) : Block.t =
  let lines_per_page = Holes_pcm.Geometry.lines_per_page in
  let bitmaps =
    Array.init Holes_heap.Units.pages_per_block (fun _ ->
        let b = B.create lines_per_page in
        for i = 0 to lines_per_page - 1 do
          if Rng.float rng < fail_p then B.set b i
        done;
        b)
  in
  Block.create ~tbl:(Block.table_create ()) ~index:0 ~base:0 ~line_size
    ~pages:(Array.init Holes_heap.Units.pages_per_block Fun.id)
    ~page_bitmap:(fun id -> bitmaps.(id))

(* The allocation fast path bumps a cursor through a previously found
   hole and re-enters [find_hole] only on exhaustion (DESIGN.md §13).
   The reference allocator below follows the identical refill policy —
   scan from the spent hole's limit, wrap to the block start — but
   performs every search as a naive per-bit scan over a mirrored free
   map.  A packed-word scan bug, mis-maintained line accounting, or a
   [hole_bound] cache that decays below the true longest run (rejecting
   a satisfiable refill) all diverge the address sequences.  Churn
   between allocations — object death anywhere, dynamic line failures
   outside the active hole — is what ages the cached bound. *)
let test_bump_vs_reference () =
  let rng = Rng.of_seed 0xb04d in
  let line_sizes = [| 64; 128; 256 |] in
  for _case = 1 to 60 do
    let ls = line_sizes.(Rng.int rng (Array.length line_sizes)) in
    let blk = make_failed_block rng ~line_size:ls ~fail_p:(Rng.float rng *. 0.2) in
    let nlines = blk.Block.nlines in
    let free = Array.init nlines (fun l -> Block.line_state blk l = Block.Free) in
    let flty = Array.init nlines (fun l -> Block.line_state blk l = Block.Failed) in
    let live = Array.make nlines 0 in
    let m_add addr size =
      let lo = addr / ls and hi = (addr + size - 1) / ls in
      for l = lo to hi do
        if flty.(l) then Alcotest.failf "placement covers failed line %d" l;
        if live.(l) = 0 then free.(l) <- false;
        live.(l) <- live.(l) + 1
      done
    in
    let m_remove addr size =
      let lo = addr / ls and hi = (addr + size - 1) / ls in
      for l = lo to hi do
        live.(l) <- live.(l) - 1;
        if live.(l) = 0 then free.(l) <- true
      done
    in
    (* real side: Immix's cursor policy over the packed block *)
    let cursor = ref 0 and limit = ref 0 in
    let real_alloc size =
      if !cursor + size <= !limit then begin
        let a = !cursor in
        cursor := a + size;
        Block.add_object_lines blk ~addr:a ~size;
        Some a
      end
      else
        let refill from_line =
          match Block.find_hole blk ~from_line ~min_bytes:size with
          | Some (s, e, _) ->
              cursor := s * ls;
              limit := e * ls;
              true
          | None -> false
        in
        if refill (!limit / ls) || refill 0 then begin
          let a = !cursor in
          cursor := a + size;
          Block.add_object_lines blk ~addr:a ~size;
          Some a
        end
        else None
    in
    (* reference side: the same policy, every search a per-bit scan *)
    let mcursor = ref 0 and mlimit = ref 0 in
    let mirror_alloc size =
      let needed = (size + ls - 1) / ls in
      if !mcursor + size <= !mlimit then begin
        let a = !mcursor in
        mcursor := a + size;
        m_add a size;
        Some a
      end
      else
        let refill from =
          match naive_find_set_run free ~from ~min_len:needed with
          | Some (s, e) ->
              mcursor := s * ls;
              mlimit := e * ls;
              true
          | None -> false
        in
        if refill (!mlimit / ls) || refill 0 then begin
          let a = !mcursor in
          mcursor := a + size;
          m_add a size;
          Some a
        end
        else None
    in
    let placed = ref [] in
    for _op = 1 to 300 do
      (match Rng.int rng 8 with
      | 0 | 1 -> (
          (* object death: reclaim a placed object *)
          match !placed with
          | (a, sz) :: rest ->
              Block.remove_object_lines blk ~addr:a ~size:sz;
              m_remove a sz;
              placed := rest
          | [] -> ())
      | 2 -> (
          (* dynamic failure on a free line outside the active hole *)
          match naive_next_set free (Rng.int rng nlines) with
          | Some l when l < !cursor / ls || l >= !limit / ls ->
              (match Block.fail_line blk ~line:l with
              | `Was_free -> ()
              | _ -> Alcotest.fail "fail_line on mirrored-free line not `Was_free");
              free.(l) <- false;
              flty.(l) <- true
          | _ -> ())
      | _ ->
          let size = 1 + Rng.int rng (4 * ls) in
          let got = real_alloc size and want = mirror_alloc size in
          check Alcotest.(option int) "bump address" want got;
          (match got with Some a -> placed := (a, size) :: !placed | None -> ()));
      check Alcotest.int "free_lines" (naive_count free) (Block.free_lines blk);
      Alcotest.(check bool) "hole_bound is an upper bound" true
        (naive_longest_free_run free <= Block.hole_bound blk)
    done
  done

(* ---- mark deque vs oracle reference ----------------------------------- *)

(* The mark phase walks a bitmap snapshot of the occupied slots rather
   than a per-slot recursive walk; the observable contract is
   unchanged: after a full collection exactly the oracle-live objects
   survive, every dead slot is released for reuse, and the block line
   accounting matches a naive recomputation from the survivors — which
   is precisely what [Vm.verify] replays (per-line live maps, counts,
   hole bounds, charge conservation). *)
let test_mark_deque_vs_reference () =
  let rng = Rng.of_seed 0x6c01 in
  for _case = 1 to 6 do
    let cfg = { Cfg.default with Cfg.failure_rate = 0.1 } in
    let vm = Holes.Vm.create ~cfg ~min_heap_bytes:(2 * 1024 * 1024) () in
    let objects = Holes.Vm.objects vm in
    let ids = Array.init 800 (fun _ -> Holes.Vm.alloc vm ~size:(16 + Rng.int rng 240) ()) in
    (* random edges, including from and into objects about to die: edge
       charges are per-survivor, dead sources must not resurrect dsts *)
    for _ = 1 to 1200 do
      let s = ids.(Rng.int rng (Array.length ids)) in
      let d = ids.(Rng.int rng (Array.length ids)) in
      if s <> d then Holes.Vm.write_ref vm ~src:s ~dst:d
    done;
    Array.iter (fun id -> if Rng.bool rng then Holes.Vm.kill vm id) ids;
    let expected_alive =
      Array.to_list ids |> List.filter (Holes_heap.Object_table.is_alive objects)
    in
    Holes.Vm.collect vm ~full:true;
    List.iter
      (fun id ->
        Alcotest.(check bool) "survivor alive" true
          (Holes_heap.Object_table.is_alive objects id))
      expected_alive;
    Array.iter
      (fun id ->
        if not (Holes_heap.Object_table.is_alive objects id) then
          check Alcotest.int "dead slot released" (-1)
            (Holes_heap.Object_table.addr objects id))
      ids;
    check Alcotest.int "live_count" (List.length expected_alive)
      (Holes_heap.Object_table.live_count objects);
    match (Holes.Vm.verify vm).Holes.Verify.errors with
    | [] -> ()
    | e :: _ -> Alcotest.failf "verify after collect: %s" e
  done

(* ---- fused sweep vs naive per-line sweep ------------------------------ *)

(* [Block.sweep] recomputes the hole bound in one word-level pass over
   the packed free map.  The reference recomputes it per line from a
   mirror rebuilt the way the mark loop rebuilds the block: clear, then
   re-add the survivors. *)
let test_fused_sweep_vs_naive () =
  let rng = Rng.of_seed 0x53ee in
  let line_sizes = [| 64; 128; 256 |] in
  for _case = 1 to 200 do
    let ls = line_sizes.(Rng.int rng (Array.length line_sizes)) in
    let blk = make_failed_block rng ~line_size:ls ~fail_p:(Rng.float rng *. 0.3) in
    let nlines = blk.Block.nlines in
    Block.clear_marks blk;
    let free = Array.init nlines (fun l -> Block.line_state blk l = Block.Free) in
    (* re-add surviving objects, as the mark loop does *)
    for _ = 1 to 40 do
      let needed = 1 + Rng.int rng 4 in
      match naive_find_set_run free ~from:(Rng.int rng nlines) ~min_len:needed with
      | Some (s, _) ->
          Block.add_object_lines blk ~addr:(s * ls) ~size:(needed * ls);
          for l = s to s + needed - 1 do
            free.(l) <- false
          done
      | None -> ()
    done;
    Block.set_recyclable blk true;
    let freec = Block.sweep blk in
    check Alcotest.int "sweep free count" (naive_count free) freec;
    check Alcotest.int "sweep free_lines" (naive_count free) (Block.free_lines blk);
    check Alcotest.int "sweep exact hole bound" (naive_longest_free_run free)
      (Block.hole_bound blk);
    Alcotest.(check bool) "sweep clears recyclable" false (Block.recyclable blk)
  done

(* ---- experiment-pipeline determinism golden --------------------------- *)


let grid_cfgs = [ Cfg.default; { Cfg.default with Cfg.failure_rate = 0.25 } ]
let grid_profiles = [ Holes_workload.Dacapo.luindex; Holes_workload.Dacapo.avrora ]

let find_sub (haystack : string) (needle : string) : int option =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub haystack i nn = needle then Some i
    else go (i + 1)
  in
  go 0

(* drop ["worker":N,"duration_s":F,] — scheduling noise, everything else
   is the deterministic trial outcome *)
let strip_schedule (l : string) : string =
  match find_sub l "\"worker\":" with
  | None -> l
  | Some i ->
      let rec nth_comma j k =
        if l.[j] = ',' then if k = 1 then j else nth_comma (j + 1) (k - 1)
        else nth_comma (j + 1) k
      in
      let j = nth_comma i 2 in
      String.sub l 0 i ^ String.sub l (j + 1) (String.length l - j - 1)

let read_lines (path : string) : string list =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* Compare [lines] with the committed golden [golden/NAME].  With
   HOLES_UPDATE_GOLDEN set to the source tree's golden directory, write
   [lines] to NAME there instead: the one way every golden in this suite
   is regenerated after an intentional results change. *)
let check_golden (name : string) (lines : string list) : unit =
  match Sys.getenv_opt "HOLES_UPDATE_GOLDEN" with
  | Some dir ->
      let out = Filename.concat dir name in
      let oc = open_out out in
      List.iter (fun l -> output_string oc (l ^ "\n")) lines;
      close_out oc;
      Printf.printf "(wrote %s)\n" out
  | None ->
      check
        Alcotest.(list string)
        "matches committed golden" (read_lines (Filename.concat "golden" name)) lines

let grid_lines ~(jobs : int) : string list =
  let path = Filename.temp_file "holes_golden" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      R.clear_cache ();
      let sink = Sink.create ~path ~progress:false () in
      R.set_sink (Some sink);
      Fun.protect
        ~finally:(fun () ->
          R.set_sink None;
          Sink.close sink;
          R.clear_cache ())
        (fun () ->
          let params = { R.scale = 0.05; seeds = 2; jobs } in
          R.prefetch ~params ~cfgs:grid_cfgs ~profiles:grid_profiles ();
          List.iter
            (fun cfg ->
              List.iter
                (fun profile -> ignore (R.run ~params ~cfg ~profile ()))
                grid_profiles)
            grid_cfgs);
      read_lines path |> List.map strip_schedule |> List.sort compare)

let test_golden_determinism () =
  let j1 = grid_lines ~jobs:1 in
  let j4 = grid_lines ~jobs:4 in
  check Alcotest.(list string) "-j 4 bit-identical to -j 1" j1 j4;
  check_golden "determinism.jsonl" j1

let suite =
  [
    ("bitset ops vs per-bit reference (12k cases)", `Quick, test_bitset_vs_naive);
    ("find_hole vs per-bit reference (12k queries)", `Quick, test_find_hole_vs_naive);
    ("bump fast path vs scan-per-refill reference", `Quick, test_bump_vs_reference);
    ("mark deque vs oracle reference", `Quick, test_mark_deque_vs_reference);
    ("fused sweep vs naive per-line sweep", `Quick, test_fused_sweep_vs_naive);
    ("experiment grid matches golden, -j independent", `Quick, test_golden_determinism);
  ]
