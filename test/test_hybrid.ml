(* Hybrid DRAM/PCM tiering tests (lib/osal/tier.ml + lib/pcm/caram.ml +
   the backend wiring, DESIGN.md §17):

   - tiering-policy CLI round-trips and rejections;
   - content-store round-trip: deduplicated and pattern-compressed
     lines read back bit-exact, survive a flush through the cells, and
     keep the store internally consistent;
   - content-store lockstep: the store's flat binding and slot arrays,
     read through its accessors, agree with a naive Hashtbl model after
     every random write, overwrite, flush and resize, and every line
     reads back its last payload;
   - the fingerprint equals a byte-at-a-time native-int FNV-1a (the
     lockstep model calls [Caram.fingerprint] itself, so only this
     check sees a changed hash);
   - the hybrid figure cells are bit-identical at -j 1 and -j 4
     (engine determinism through the tier and the content store) and
     match the committed golden test/golden/hybrid.jsonl, whose rows
     must keep promoting, demoting, deduplicating, compressing and
     wearing lines out;
   - the paranoid verifier catches a corrupted residency map
     ([Tier.unsafe_poke]) and a corrupted content-store refcount
     ([Caram.unsafe_poke]);
   - [hybrid = none] leaves the serialized record shape untouched: no
     hyb_* metric fields, no -hyb name tag.  (The other committed
     goldens — test/golden/determinism.jsonl, collect.jsonl and
     fleet.jsonl — are all hybrid-off configs, so the golden suites in
     test_hotpath.ml, test_collect.ml and test_fleet.ml gate the none
     path bit-for-bit.)

   To regenerate the hybrid golden after an intentional results change
   (see [Test_hotpath.check_golden]):

     HOLES_UPDATE_GOLDEN=test/golden dune exec test/test_main.exe -- test hybrid *)

open Alcotest
module Pcm = Holes_pcm
module Hy = Pcm.Hybrid
module Cfg = Holes.Config
module Vm = Holes.Vm

(* ---- CLI ------------------------------------------------------------- *)

let test_cli_roundtrip () =
  List.iter
    (fun p ->
      match Hy.of_cli (Hy.to_cli p) with
      | Ok p' -> check bool (Hy.to_cli p) true (p = p')
      | Error e -> fail e)
    [
      Hy.none;
      { Hy.migrate_epoch = Some 512; caram_ways = None };
      { Hy.migrate_epoch = None; caram_ways = Some 4 };
      { Hy.migrate_epoch = Some 512; caram_ways = Some 4 };
    ];
  (match Hy.of_cli "MIGRATE" with
  | Ok { Hy.migrate_epoch = Some e; caram_ways = None } ->
      check int "default epoch" Hy.default_epoch e
  | _ -> fail "case-insensitive migrate with default epoch");
  (match Hy.of_cli "caram:4+migrate:512" with
  | Ok { Hy.migrate_epoch = Some 512; caram_ways = Some 4 } -> ()
  | _ -> fail "combined form is order-insensitive");
  check string "short names" "none,mig512,car4,mig512car4"
    (String.concat ","
       (List.map Hy.short_name
          [
            Hy.none;
            { Hy.migrate_epoch = Some 512; caram_ways = None };
            { Hy.migrate_epoch = None; caram_ways = Some 4 };
            { Hy.migrate_epoch = Some 512; caram_ways = Some 4 };
          ]))

let test_cli_rejects () =
  List.iter
    (fun s ->
      match Hy.of_cli s with
      | Error _ -> ()
      | Ok _ -> fail (Printf.sprintf "%S should not parse" s))
    [
      "bogus"; "migrate:0"; "migrate:-3"; "caram:x"; "migrate:2:3"; "none:5";
      "migrate+migrate"; "caram:4+caram:4"; "";
    ]

(* ---- content-store round-trip ----------------------------------------- *)

(* Write a mix of duplicated, all-same-byte and unique payloads through
   a content-aware device: every line must read back bit-exact, the
   store must report dedup hits and compressions, its internal
   consistency check must stay clean, and tearing the store down must
   flush the bound lines through the cells without losing data. *)
let test_caram_roundtrip () =
  let config =
    { Pcm.Device.default_config with Pcm.Device.pages = 4; caram = Some 4 }
  in
  let dev = Pcm.Device.create ~config ~seed:42 () in
  let line_bytes = Pcm.Geometry.line_bytes in
  let shared = Bytes.init line_bytes (fun i -> Char.chr ((i * 7) land 0xff)) in
  let pattern = Bytes.make line_bytes '\xAB' in
  let expect = Hashtbl.create 64 in
  let put l payload =
    (match Pcm.Device.write dev l payload with
    | Pcm.Device.Stored -> ()
    | _ -> fail (Printf.sprintf "write to line %d did not store" l));
    Hashtbl.replace expect l (Bytes.copy payload)
  in
  (* lines 0..7 share one payload, 8..11 are the pattern, 12..19 unique *)
  for l = 0 to 7 do put l shared done;
  for l = 8 to 11 do put l pattern done;
  for l = 12 to 19 do
    put l (Bytes.init line_bytes (fun i -> Char.chr ((l + (i * 13)) land 0xff)))
  done;
  let check_contents tag =
    Hashtbl.iter
      (fun l payload ->
        check bool
          (Printf.sprintf "%s: line %d reads back bit-exact" tag l)
          true
          (Bytes.equal (Pcm.Device.read dev l) payload))
      expect
  in
  check_contents "store live";
  (match Pcm.Device.caram dev with
  | None -> fail "content store should be live"
  | Some c ->
      let s = Pcm.Caram.stats c in
      check bool "dedup hits recorded" true (s.Pcm.Caram.s_dedup_hits >= 7);
      check bool "compressions recorded" true (s.Pcm.Caram.s_compressed >= 3));
  check (list string) "store internally consistent" [] (Pcm.Device.caram_check dev);
  (* overwrite a deduplicated line with fresh content: the old binding's
     refcount must drop, and the new content must win *)
  let fresh = Bytes.make line_bytes 'f' in
  put 3 fresh;
  check_contents "after overwrite";
  check (list string) "consistent after overwrite" [] (Pcm.Device.caram_check dev);
  (* teardown flushes every bound line through the cells *)
  Pcm.Device.set_caram dev None;
  check bool "store torn down" true (Pcm.Device.caram dev = None);
  check_contents "after flush"

(* ---- content store vs a reference model ------------------------------ *)

(* The CARAM policy restated naively, over a Hashtbl of bindings and
   entries whose contents are fresh copies: the reference the store's
   flat binding and slot arrays are checked against. *)
type model_binding = M_slot of int | M_pattern of char

type model_entry = { mutable m_data : Bytes.t; mutable m_refs : int; mutable m_valid : bool }

type model = { m_ways : int; m_sets : int; m_table : model_entry array; m_bound : (int, model_binding) Hashtbl.t }

let model_create ~(ways : int) ~(nlines : int) : model =
  let sets = max 1 (nlines / (ways * 4)) in
  {
    m_ways = ways;
    m_sets = sets;
    m_table = Array.init (sets * ways) (fun _ -> { m_data = Bytes.empty; m_refs = 0; m_valid = false });
    m_bound = Hashtbl.create 64;
  }

let model_release (m : model) (l : int) : unit =
  (match Hashtbl.find_opt m.m_bound l with
  | Some (M_slot i) -> m.m_table.(i).m_refs <- m.m_table.(i).m_refs - 1
  | Some (M_pattern _) | None -> ());
  Hashtbl.remove m.m_bound l

let model_write (m : model) (l : int) (payload : Bytes.t) : unit =
  let c = Bytes.get payload 0 in
  if Bytes.for_all (fun x -> x = c) payload then begin
    model_release m l;
    Hashtbl.replace m.m_bound l (M_pattern c)
  end
  else begin
    let base = Pcm.Caram.fingerprint payload mod m.m_sets * m.m_ways in
    let ways = List.init m.m_ways (fun w -> base + w) in
    match
      List.find_opt (fun i -> m.m_table.(i).m_valid && Bytes.equal m.m_table.(i).m_data payload) ways
    with
    | Some i when Hashtbl.find_opt m.m_bound l = Some (M_slot i) -> ()
    | Some i ->
        model_release m l;
        m.m_table.(i).m_refs <- m.m_table.(i).m_refs + 1;
        Hashtbl.replace m.m_bound l (M_slot i)
    | None -> (
        model_release m l;
        match List.find_opt (fun i -> m.m_table.(i).m_refs = 0) ways with
        | Some i ->
            m.m_table.(i).m_data <- Bytes.copy payload;
            m.m_table.(i).m_valid <- true
        | None -> ())
  end

(* every line's binding and every entry's state agree with the model *)
let agree_with_model ~(tag : string) (c : Pcm.Caram.t) (m : model) : unit =
  Array.iteri
    (fun l b ->
      let got =
        if b = Pcm.Caram.unbound then None
        else if b >= 0 then Some (M_slot b)
        else Some (M_pattern (Pcm.Caram.pattern_of_binding b))
      in
      if got <> Hashtbl.find_opt m.m_bound l then failf "%s: line %d binding disagrees" tag l)
    c.Pcm.Caram.bound;
  if Pcm.Caram.slots c <> Array.length m.m_table then failf "%s: slot count disagrees" tag;
  Array.iteri
    (fun i me ->
      if
        Pcm.Caram.slot_valid c i <> me.m_valid
        || Pcm.Caram.slot_refs c i <> me.m_refs
        || (me.m_valid && not (Bytes.equal (Pcm.Caram.slot_content c i) me.m_data))
      then failf "%s: slot %d disagrees" tag i)
    m.m_table

(* Random writes and overwrites of pattern, recurring and unique
   payloads, with the store flushed, re-created or resized every so
   often: after every step the store agrees with the model, and every
   line reads back its last payload. *)
let test_caram_matches_model () =
  let line_bytes = Pcm.Geometry.line_bytes in
  for seed = 1 to 6 do
    let rng = Holes_stdx.Xrng.of_seed seed in
    let config =
      {
        Pcm.Device.default_config with
        Pcm.Device.pages = 4;
        wear = Pcm.Wear.default_params;
        clustering = None;
        caram = Some 4;
      }
    in
    let dev = Pcm.Device.create ~config ~seed () in
    let nlines = Pcm.Device.nlines dev in
    let model = ref (Some (model_create ~ways:4 ~nlines)) in
    let recurring =
      Array.init 6 (fun k -> Bytes.init line_bytes (fun i -> Char.chr (((k * 37) + (i * 11)) land 0xff)))
    in
    let last = Hashtbl.create 256 in
    let stamp = ref 0 in
    for step = 1 to 600 do
      let tag = Printf.sprintf "seed %d step %d" seed step in
      if Holes_stdx.Xrng.int rng 60 = 0 then begin
        let ways = List.nth [ None; Some 2; Some 4 ] (Holes_stdx.Xrng.int rng 3) in
        Pcm.Device.set_caram dev ways;
        model :=
          (match (ways, !model) with
          | None, _ -> None
          | Some w, Some m when m.m_ways = w -> Some m
          | Some w, _ -> Some (model_create ~ways:w ~nlines))
      end
      else begin
        let l = Holes_stdx.Xrng.int rng nlines in
        let payload =
          match Holes_stdx.Xrng.int rng 3 with
          | 0 -> Bytes.make line_bytes (Char.chr (Holes_stdx.Xrng.int rng 4))
          | 1 -> Bytes.copy recurring.(Holes_stdx.Xrng.int rng (Array.length recurring))
          | _ ->
              incr stamp;
              Bytes.init line_bytes (fun i -> Char.chr ((!stamp lsr (i land 15)) land 0xff lxor i))
        in
        (match Pcm.Device.write dev l payload with
        | Pcm.Device.Stored -> ()
        | _ -> failf "%s: write to line %d did not store" tag l);
        Option.iter (fun m -> model_write m l payload) !model;
        Hashtbl.replace last l payload
      end;
      (match (Pcm.Device.caram dev, !model) with
      | Some c, Some m -> agree_with_model ~tag c m
      | None, None -> ()
      | _ -> failf "%s: store presence disagrees with the model" tag);
      Hashtbl.iter
        (fun l payload ->
          if not (Bytes.equal (Pcm.Device.read dev l) payload) then
            failf "%s: line %d does not read back its last payload" tag l)
        last
    done
  done

(* ---- engine determinism and the hybrid golden ------------------------ *)

(* Every hybrid-figure policy at the 8-frame provisioning, run through
   the engine at -j 1 and -j 4 for ten rounds (enough to wear lines out
   under every policy): the serialized outcome (including the hyb_*
   metric fields) must be bit-identical, and the sink records must
   match the committed golden.  Each run returns the exact
   ([%h]) outcome strings and the sorted sink records. *)
let hybrid_runs ~(jobs : int) : string list * string list =
  Test_translate.lifetime_runs ~jobs ~max_rounds:10
    ~fields:(fun (o : Holes_exp.Wear_policies.outcome) ->
      ("rounds", float_of_int o.Holes_exp.Wear_policies.rounds)
      :: ("dead_lines", float_of_int o.Holes_exp.Wear_policies.dead_lines)
      :: ("elapsed_ms", o.Holes_exp.Wear_policies.elapsed_ms)
      :: Holes.Metrics.to_fields o.Holes_exp.Wear_policies.m)
    (List.map
       (fun (_, hybrid) -> Holes_exp.Hybrid_figure.cell_cfg ~hybrid ~dram_pages:8)
       Holes_exp.Hybrid_figure.policies)

(* each row keeps exercising the mechanisms its policy turns on, and
   every row wears lines out, so the golden cannot silently turn into
   a no-op *)
let check_hybrid_paths (lines : string list) : unit =
  check int "one record per policy" (List.length Holes_exp.Hybrid_figure.policies)
    (List.length lines);
  List.iter
    (fun l ->
      let c = Test_collect.config l in
      let positive key = check bool (c ^ ": " ^ key ^ " > 0") true (Test_collect.field l key > 0.0) in
      positive "device_line_failures";
      if Test_collect.contains c "mig" then begin
        positive "hyb_promotes";
        positive "hyb_demotes"
      end;
      if Test_collect.contains c "car" then begin
        positive "hyb_dedup_hits";
        positive "hyb_compressed"
      end)
    lines

let test_engine_determinism () =
  let exact1, j1 = hybrid_runs ~jobs:1 in
  let exact4, j4 = hybrid_runs ~jobs:4 in
  check (list string) "-j 4 bit-identical to -j 1" exact1 exact4;
  check (list string) "-j 4 sink records identical to -j 1" j1 j4;
  check_hybrid_paths j1;
  Test_hotpath.check_golden "hybrid.jsonl" j1

(* ---- verifier mutation ------------------------------------------------ *)

let device_vm ~(hybrid : Hy.policy) : Vm.t =
  let d = Cfg.default_device in
  let cfg =
    {
      Cfg.default with
      Cfg.collector = Cfg.Sticky_immix;
      backend = Cfg.Device { d with Cfg.dram_pages = 8 };
      failure_rate = 0.0;
      hybrid;
    }
  in
  let vm = Vm.create ~cfg ~min_heap_bytes:(256 * 1024) () in
  for _ = 1 to 256 do
    let id = Vm.alloc vm ~size:64 () in
    Vm.kill vm id
  done;
  vm

(* Corrupt the residency map underneath a running VM: the per-phase
   residency check must report it. *)
let test_verifier_catches_tier_poke () =
  let vm = device_vm ~hybrid:{ Hy.migrate_epoch = Some 64; caram_ways = None } in
  let r = Vm.verify vm in
  check (list string) "clean before the poke" [] r.Holes.Verify.errors;
  let st = Option.get (Vm.device_state vm) in
  (match st.Holes.Memory_backend.node.Holes.Memory_backend.n_tier with
  | None -> fail "migration should bring up the tier"
  | Some tier -> Holes_osal.Tier.unsafe_poke tier);
  let r = Vm.verify vm in
  check bool "verifier reports the corrupted residency map" true
    (r.Holes.Verify.errors <> [])

(* Corrupt a content-store refcount: the verifier's caram consistency
   check must report it. *)
let test_verifier_catches_caram_poke () =
  let vm = device_vm ~hybrid:{ Hy.migrate_epoch = None; caram_ways = Some 4 } in
  let r = Vm.verify vm in
  check (list string) "clean before the poke" [] r.Holes.Verify.errors;
  let st = Option.get (Vm.device_state vm) in
  (match Pcm.Device.caram st.Holes.Memory_backend.device with
  | None -> fail "content store should be live"
  | Some c -> Pcm.Caram.unsafe_poke c);
  let r = Vm.verify vm in
  check bool "verifier reports the corrupted content store" true
    (r.Holes.Verify.errors <> [])

(* ---- the fingerprint against a byte-at-a-time reference --------------- *)

(* FNV-1a a byte at a time on native ints, the fold [Caram.fingerprint]
   computes on an unboxed Int64.  The lockstep model above calls
   [Caram.fingerprint] itself, so it cannot see a changed hash. *)
let naive_fingerprint (b : Bytes.t) : int =
  let h = ref 0x3bf29ce484222325 in
  Bytes.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001b3) b;
  !h land max_int

(* Random payloads of every length up to two lines, then the
   synthesizer's three content classes (zero, recurring, unique) as a
   live device backend draws them. *)
let test_fingerprint_matches_reference () =
  let agree tag b =
    if Pcm.Caram.fingerprint b <> naive_fingerprint b then failf "%s: fingerprint disagrees" tag
  in
  let rng = Holes_stdx.Xrng.of_seed 3 in
  for k = 1 to 4000 do
    let len = if k <= 129 then k - 1 else Pcm.Geometry.line_bytes in
    agree
      (Printf.sprintf "random payload %d" k)
      (Bytes.init len (fun _ -> Char.chr (Holes_stdx.Xrng.int rng 256)))
  done;
  let st = Option.get (Vm.device_state (device_vm ~hybrid:{ Hy.migrate_epoch = None; caram_ways = Some 8 })) in
  let classes = Array.make 3 0 in
  for k = 1 to 2000 do
    let b = Holes.Memory_backend.content_for_write st in
    let c =
      if Bytes.for_all (fun x -> x = '\000') b then 0
      else if Bytes.get b (Bytes.length b - 1) = '\xAB' then 2
      else 1
    in
    classes.(c) <- classes.(c) + 1;
    agree (Printf.sprintf "synthesized payload %d" k) b
  done;
  Array.iteri (fun c n -> if n = 0 then failf "content class %d never drawn" c) classes

(* ---- a demotion lets nothing in halfway ------------------------------- *)

(* A demotion's write-back can stall the device; servicing the stall
   up-calls the runtime, which may retire a line through a full
   collection whose verifier checks the tier, and whose writes reach the
   page through its current mapping.  The residency map, the mapping and
   the pools must agree whenever that can happen.  The hybrid table's
   32-frame migrate cell, verified after every collection, reaches such
   a stall within eight rounds of pmd. *)
let test_demotion_consistent_under_upcall () =
  let cfg =
    {
      (Holes_exp.Hybrid_figure.cell_cfg
         ~hybrid:{ Hy.migrate_epoch = Some 512; caram_ways = None }
         ~dram_pages:32)
      with
      Cfg.verify = true;
    }
  in
  let o =
    Holes_exp.Wear_policies.lifetime_run ~cfg ~profile:Holes_workload.Dacapo.pmd ~scale:0.05
      ~max_rounds:8
  in
  let m = o.Holes_exp.Wear_policies.m in
  check bool "pages were demoted" true (m.Holes.Metrics.hyb_demotes > 0);
  check bool "lines wore out" true (m.Holes.Metrics.device_line_failures > 0);
  check bool "the device stalled" true (m.Holes.Metrics.fbuf_stall_events > 0);
  check bool "the verifier ran" true (m.Holes.Metrics.verify_passes > 0)

(* ---- hybrid=none leaves the record shape untouched -------------------- *)

(* The none policy must be invisible in every serialized surface: no
   hyb_* metric fields, no -hyb tag in the config name — so the
   committed goldens and the cross-PR JSONL trajectory stay comparable.
   With tiering on, the fields appear and the absorption accounting is
   a sane fraction. *)
let test_none_invisible () =
  let run ~hybrid =
    let cfg = Holes_exp.Hybrid_figure.cell_cfg ~hybrid ~dram_pages:8 in
    Holes_exp.Wear_policies.lifetime_run ~cfg ~profile:Holes_workload.Dacapo.pmd
      ~scale:0.04 ~max_rounds:1
  in
  let has_hyb m =
    List.exists
      (fun (k, _) -> String.length k >= 4 && String.sub k 0 4 = "hyb_")
      (Holes.Metrics.to_fields m)
  in
  let off = run ~hybrid:Hy.none in
  check bool "no hyb_* fields when off" false (has_hyb off.Holes_exp.Wear_policies.m);
  let name_off =
    Cfg.name (Holes_exp.Hybrid_figure.cell_cfg ~hybrid:Hy.none ~dram_pages:8)
  in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check bool "no -hyb tag when off" false (contains name_off "hyb");
  let hybrid = { Hy.migrate_epoch = Some 512; caram_ways = Some 8 } in
  let on = run ~hybrid in
  check bool "hyb_* fields when on" true (has_hyb on.Holes_exp.Wear_policies.m);
  check bool "-hyb tag when on" true
    (contains (Cfg.name (Holes_exp.Hybrid_figure.cell_cfg ~hybrid ~dram_pages:8)) "hybmig512car8");
  let a = Holes_exp.Hybrid_figure.absorption on.Holes_exp.Wear_policies.m in
  check bool "absorption in (0,1]" true (a > 0.0 && a <= 1.0)

let suite =
  [
    ("hybrid policy CLI round-trips", `Quick, test_cli_roundtrip);
    ("hybrid policy CLI rejections", `Quick, test_cli_rejects);
    ("content store round-trips dedup/compressed lines", `Quick, test_caram_roundtrip);
    ("content store matches a reference model", `Quick, test_caram_matches_model);
    ("fingerprint matches a byte-at-a-time FNV-1a", `Quick, test_fingerprint_matches_reference);
    ("hybrid figure cells bit-identical at -j 1/-j 4", `Quick, test_engine_determinism);
    ("verifier catches a corrupted residency map", `Quick, test_verifier_catches_tier_poke);
    ("verifier catches a corrupted content store", `Quick, test_verifier_catches_caram_poke);
    ("hybrid=none leaves record shape and names untouched", `Quick, test_none_invisible);
    ("demotion stays consistent when its write-back up-calls", `Quick,
      test_demotion_consistent_under_upcall);
  ]
