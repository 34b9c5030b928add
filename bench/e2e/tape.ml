(* Workload inputs as a flat op tape.

   Each batch workload turns a Holes_workload profile's parameters (size
   mix, lifetime mixture, mutation rate, pin rate, volume, immortal base)
   into a sequence of

     alloc (size, pinned)   write_ref (src, newest)   kill (i)

   over allocation indices, sampled with the benchmark's own sampler
   (OCaml's Random.State, seeded from --seed).  Deaths and mutation
   sources are decided here, at generation time, so a replay is a tight
   loop over the ops and the benchmark's inputs cannot move when the
   library's own workload generator changes.

   Ops are stored as int32 in fixed-size Bigarray chunks, outside the
   OCaml heap and filled in place (no doubling buffer, no copy), so the
   inputs add neither GC work nor a size-dependent transient to the run
   they drive.  Encoding: [op land 3] is the tag (0 alloc, 1 kill, 2 write_ref) and
   [op lsr 2] the payload: [size lsl 1 lor pinned] for an alloc, the
   allocation index for kill (the object dying) and write_ref (the
   source; the destination is always the newest allocation). *)

module Profile = Holes_workload.Profile
module Vm = Holes.Vm

type chunk = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

let chunk_ops = 1 lsl 16

type t = {
  profile : Profile.t;  (** the (scaled) profile the tape was sampled from *)
  chunks : chunk array;  (** every chunk full except the last *)
  nops : int;
  nallocs : int;
  survivors : int array;  (** allocation indices still alive at the tape's end *)
}

let tag_alloc = 0
let tag_kill = 1
let tag_write = 2

(* ---- the sampler ---- *)

let medium_lo = 320
let medium_hi = Holes_heap.Units.los_threshold

let log_uniform rs ~lo ~hi =
  let llo = log (float_of_int lo) and lhi = log (float_of_int hi) in
  int_of_float (exp (llo +. (Random.State.float rs 1.0 *. (lhi -. llo))))

let log_uniform_mean ~lo ~hi =
  let a = float_of_int lo and b = float_of_int hi in
  (b -. a) /. (log b -. log a)

let exponential rs ~mean = -.mean *. log (1.0 -. Random.State.float rs 1.0)

(* object-count weights of the small / medium / large categories:
   byte fractions divided by each category's mean size *)
let category_weights (p : Profile.t) : float * float * float =
  let small = Float.max 0.0 (1.0 -. p.Profile.medium_frac -. p.Profile.large_frac) in
  ( small /. p.Profile.small_mean,
    p.Profile.medium_frac /. log_uniform_mean ~lo:medium_lo ~hi:medium_hi,
    p.Profile.large_frac /. log_uniform_mean ~lo:(medium_hi + 64) ~hi:p.Profile.large_max )

let sample_size rs (p : Profile.t) (ws, wm, wl) : int =
  let u = Random.State.float rs (ws +. wm +. wl) in
  if u < ws then
    let s = int_of_float (exponential rs ~mean:(p.Profile.small_mean -. 16.0)) + 16 in
    min 304 (max 16 s)
  else if u < ws +. wm then log_uniform rs ~lo:medium_lo ~hi:medium_hi
  else log_uniform rs ~lo:(medium_hi + 64) ~hi:p.Profile.large_max

(* lifetime in bytes of later allocation: a short/long mixture whose
   mean is the live target (Little's law) *)
let sample_lifetime rs (p : Profile.t) : int =
  let lt = float_of_int p.Profile.live_target in
  let s = p.Profile.short_frac in
  let mean_short = 0.06 *. lt in
  let mean_long = Float.max mean_short ((lt -. (s *. mean_short)) /. (1.0 -. s)) in
  let mean = if Random.State.float rs 1.0 < s then mean_short else mean_long in
  1 + int_of_float (exponential rs ~mean)

(* ---- a growable int buffer and a min-heap of (death clock, index) ---- *)

type buf = { mutable a : int array; mutable n : int }

let push (b : buf) (x : int) : unit =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * Array.length b.a) 0 in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- x;
  b.n <- b.n + 1

type heap = { keys : buf; vals : buf }

let heap_push (h : heap) ~key v =
  push h.keys key;
  push h.vals v;
  let k = h.keys.a and x = h.vals.a in
  let i = ref (h.keys.n - 1) in
  while !i > 0 && k.((!i - 1) / 2) > k.(!i) do
    let p = (!i - 1) / 2 in
    let tk = k.(p) and tv = x.(p) in
    k.(p) <- k.(!i);
    x.(p) <- x.(!i);
    k.(!i) <- tk;
    x.(!i) <- tv;
    i := p
  done

let heap_pop (h : heap) : int =
  let k = h.keys.a and x = h.vals.a in
  let top = x.(0) in
  let n = h.keys.n - 1 in
  h.keys.n <- n;
  h.vals.n <- n;
  k.(0) <- k.(n);
  x.(0) <- x.(n);
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let m = if l < n && k.(l) < k.(!i) then l else !i in
    let m = if r < n && k.(r) < k.(m) then r else m in
    if m = !i then continue := false
    else begin
      let tk = k.(m) and tv = x.(m) in
      k.(m) <- k.(!i);
      x.(m) <- x.(!i);
      k.(!i) <- tk;
      x.(!i) <- tv;
      i := m
    end
  done;
  top

(* ---- generation ---- *)

(* Sample the tape of [profile] (already scaled).  [seed] and [stream]
   select the random stream; the same pair always gives the same tape. *)
let generate (profile : Profile.t) ~(seed : int) ~(stream : int) : t =
  let rs = Random.State.make [| seed; stream; 0x7a9e |] in
  let weights = category_weights profile in
  let chunks = ref [] and cur = ref (Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout chunk_ops) in
  let nops = ref 0 in
  let emit op =
    if op > Int32.to_int Int32.max_int then failwith "Tape.generate: op does not fit in 32 bits";
    let i = !nops land (chunk_ops - 1) in
    if i = 0 && !nops > 0 then begin
      chunks := !cur :: !chunks;
      cur := Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout chunk_ops
    end;
    Bigarray.Array1.unsafe_set !cur i (Int32.of_int op);
    incr nops
  in
  (* every object is at least 16 bytes, which bounds the allocation count *)
  let alive = Bytes.make (((profile.Profile.immortal + profile.Profile.volume) / 16) + 2) '\000' in
  let nallocs = ref 0 in
  let alloc ~size ~pinned =
    emit ((((size lsl 1) lor if pinned then 1 else 0) lsl 2) lor tag_alloc);
    Bytes.unsafe_set alive !nallocs '\001';
    incr nallocs;
    !nallocs - 1
  in
  let imm = ref 0 in
  while !imm < profile.Profile.immortal do
    let size = min 2048 (max 32 (sample_size rs profile weights)) in
    ignore (alloc ~size ~pinned:false);
    imm := !imm + size
  done;
  let deaths = { keys = { a = Array.make 1024 0; n = 0 }; vals = { a = Array.make 1024 0; n = 0 } } in
  let pool_size = 1024 in
  let pool = Array.make pool_size (-1) in
  let clock = ref 0 in
  while !clock < profile.Profile.volume do
    let size = sample_size rs profile weights in
    let pinned = Random.State.float rs 1.0 < profile.Profile.pin_rate in
    let i = alloc ~size ~pinned in
    heap_push deaths ~key:(!clock + sample_lifetime rs profile) i;
    pool.(Random.State.int rs pool_size) <- i;
    if Random.State.float rs 1.0 < profile.Profile.mutation_rate then begin
      let src = pool.(Random.State.int rs pool_size) in
      if src >= 0 && src <> i && Bytes.get alive src = '\001' then emit ((src lsl 2) lor tag_write)
    end;
    clock := !clock + size;
    while deaths.keys.n > 0 && deaths.keys.a.(0) <= !clock do
      let dead = heap_pop deaths in
      Bytes.set alive dead '\000';
      emit ((dead lsl 2) lor tag_kill)
    done
  done;
  let survivors = { a = Array.make 1024 0; n = 0 } in
  for i = 0 to !nallocs - 1 do
    if Bytes.get alive i = '\001' then push survivors i
  done;
  {
    profile;
    chunks = Array.of_list (List.rev (!cur :: !chunks));
    nops = !nops;
    nallocs = !nallocs;
    survivors = Array.sub survivors.a 0 survivors.n;
  }

(* ---- replay ---- *)

(* The allocation-index -> object-id map of a replay, outside the OCaml
   heap and reused by every cell; it must hold [nallocs] entries. *)
type ids = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let ids_for (tapes : t array) : ids =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout
    (Array.fold_left (fun acc t -> max acc t.nallocs) 1 tapes)

(* Call [f op] on every op in order. *)
let[@inline] iter_ops (tape : t) (f : int -> unit) : unit =
  Array.iteri
    (fun c (chunk : chunk) ->
      let n = if c = Array.length tape.chunks - 1 then tape.nops - (c * chunk_ops) else chunk_ops in
      for i = 0 to n - 1 do
        f (Int32.to_int (Bigarray.Array1.unsafe_get chunk i))
      done)
    tape.chunks

(* Replay the whole tape against [vm]. *)
let replay (tape : t) (vm : Vm.t) ~(ids : ids) : unit =
  let k = ref 0 in
  iter_ops tape (fun op ->
      let arg = op lsr 2 in
      match op land 3 with
      | 0 ->
          ids.{!k} <- Vm.alloc vm ~pinned:(arg land 1 = 1) ~size:(arg lsr 1) ();
          incr k
      | 1 -> Vm.kill vm ids.{arg}
      | _ -> Vm.write_ref vm ~src:ids.{arg} ~dst:ids.{!k - 1})

(* The same replay with every call timed and classified by [probe]. *)
let replay_traced (tape : t) (vm : Vm.t) ~(ids : ids) ~(probe : Layers.t) : unit =
  let m = Vm.metrics vm and cost = Vm.cost vm in
  let k = ref 0 in
  iter_ops tape (fun op ->
    let arg = op lsr 2 in
    let df0 = m.Holes.Metrics.dynamic_failures
    and f0 = m.Holes.Metrics.full_gcs
    and n0 = m.Holes.Metrics.nursery_gcs in
    let v0 = Holes.Cost.total_ns cost in
    let t0 = Clock.now_ns () in
    let fast = match op land 3 with 0 -> Layers.alloc_fast | 1 -> Layers.kill | _ -> Layers.write_fast in
    match
      match op land 3 with
      | 0 ->
          ids.{!k} <- Vm.alloc vm ~pinned:(arg land 1 = 1) ~size:(arg lsr 1) ();
          incr k
      | 1 -> Vm.kill vm ids.{arg}
      | _ -> Vm.write_ref vm ~src:ids.{arg} ~dst:ids.{!k - 1}
    with
    | () -> Layers.finish probe ~fast m ~cost ~df0 ~f0 ~n0 ~t0 ~v0
    | exception e ->
        Layers.finish probe ~fast m ~cost ~df0 ~f0 ~n0 ~t0 ~v0;
        raise e)

(* Kill every object the tape leaves alive (the end of a round). *)
let kill_survivors ?probe (tape : t) (vm : Vm.t) ~(ids : ids) : unit =
  match probe with
  | None -> Array.iter (fun i -> Vm.kill vm ids.{i}) tape.survivors
  | Some p ->
      let cost = Vm.cost vm in
      Array.iter
        (fun i -> Layers.timed_call p ~cls:Layers.kill ~cost (fun () -> Vm.kill vm ids.{i}))
        tape.survivors
