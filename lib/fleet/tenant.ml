(** One serving tenant: the request-level workload driven against a
    tenant VM.

    A tenant alternates between {e sessions} — a block of session state
    allocated up front and kept live for a sampled number of requests —
    and {e requests}: an allocation burst whose objects mostly die at
    request end, with a small retained fraction joining the session
    state (caches, accumulated results).  Mutation wires fresh objects
    into the session graph, exercising the write barrier and remembered
    set exactly as {!Holes_workload.Generator} does.  Object sizes reuse
    the profile's size mix, so the tenant stresses the same
    small/medium/LOS paths as the batch workloads.

    Service time is the VM's cost-model delta across the request — GC
    pauses, hole skips, device retirement work and all — which is what
    the fleet simulator turns into queueing delay. *)

open Holes_stdx
module Generator = Holes_workload.Generator
module Profile = Holes_workload.Profile

type params = {
  profile : Profile.t;  (** size mix and mutation behaviour *)
  req_bytes : int;  (** mean bytes allocated per request *)
  session_requests : int;  (** mean requests per session *)
  session_bytes : int;  (** session state allocated at session start *)
  retain_frac : float;  (** fraction of request objects joining the session *)
}

let default_profile : Profile.t =
  Profile.make ~name:"serving"
    ~description:"session-oriented serving tenant (request bursts over session state)"
    ~live_kb:48 ~immortal_kb:8 ~volume_mb:1 ()

let default : params =
  {
    profile = default_profile;
    req_bytes = 24 * 1024;
    session_requests = 20;
    session_bytes = 8 * 1024;
    retain_frac = 0.05;
  }

(** Compact parameter rendering for fleet cell names (seed/cache-key
    material: every field that changes tenant behaviour appears). *)
let name (p : params) : string =
  Printf.sprintf "%s,rq%d,sr%d,sb%d,rf%g" p.profile.Profile.name p.req_bytes
    p.session_requests p.session_bytes p.retain_frac

type t = {
  params : params;
  rng : Xrng.t;
  dist : Generator.category Dist.Discrete.t;
  session : Intvec.t;  (** live session object ids, oldest first *)
  locals : Intvec.t;  (** the current request's unretained ids, oldest first *)
  mutable session_left : int;  (** requests before the session turns over *)
}

let make (params : params) (rng : Xrng.t) : t =
  {
    params;
    rng;
    dist = Generator.category_dist params.profile;
    session = Intvec.create ();
    locals = Intvec.create ();
    session_left = 0;
  }

(** Forget all VM-specific state (object ids die with the VM).  Called
    on eviction, before the tenant is re-placed on a fresh VM. *)
let reset (t : t) : unit =
  Intvec.clear t.session;
  Intvec.clear t.locals;
  t.session_left <- 0

type outcome = { service_ns : float; gc_ns : float }

(* kill every id in [v], newest first *)
let kill_all (vm : Holes.Vm.t) (v : Intvec.t) : unit =
  for i = Intvec.length v - 1 downto 0 do
    Holes.Vm.kill vm (Intvec.unsafe_get v i)
  done;
  Intvec.clear v

(* Session turnover: kill the old session state, then allocate the new
   session's base working set. *)
let begin_session (t : t) (vm : Holes.Vm.t) : unit =
  kill_all vm t.session;
  t.session_left <-
    1 + int_of_float (Dist.exponential t.rng ~mean:(float_of_int t.params.session_requests));
  let acc = ref 0 in
  while !acc < t.params.session_bytes do
    let size = Generator.sample_size t.rng t.params.profile t.dist in
    Intvec.push t.session (Holes.Vm.alloc vm ~size ());
    acc := !acc + size
  done

(** Serve one request on [vm]: session management, then an allocation
    burst of ~[req_bytes] with mutation into the session graph; request
    locals are killed at request end.  Returns the modeled service time
    (cost delta, ≥ 1 ns).  An OOM anywhere aborts the request — the VM
    must be considered unusable and the caller evicts the tenant. *)
let serve (t : t) (vm : Holes.Vm.t) : (outcome, [ `Oom ]) result =
  let cost = Holes.Vm.cost vm in
  let t0 = Holes.Cost.total_ns cost and g0 = Holes.Cost.gc_ns cost in
  match
    if t.session_left <= 0 then begin_session t vm;
    t.session_left <- t.session_left - 1;
    let target =
      1 + int_of_float (Dist.exponential t.rng ~mean:(float_of_int t.params.req_bytes))
    in
    Intvec.clear t.locals;
    let acc = ref 0 in
    while !acc < target do
      let size = Generator.sample_size t.rng t.params.profile t.dist in
      let id = Holes.Vm.alloc vm ~size () in
      let n = Intvec.length t.session in
      if n > 0 && Xrng.float t.rng < t.params.profile.Profile.mutation_rate then begin
        (* the k-th newest session id: the fleet goldens pin this pick *)
        let src = Intvec.unsafe_get t.session (n - 1 - Xrng.int t.rng n) in
        Holes.Vm.write_ref vm ~src ~dst:id
      end;
      Intvec.push (if Xrng.float t.rng < t.params.retain_frac then t.session else t.locals) id;
      acc := !acc + size
    done;
    kill_all vm t.locals
  with
  | () ->
      Ok
        {
          service_ns = Float.max 1.0 (Holes.Cost.total_ns cost -. t0);
          gc_ns = Holes.Cost.gc_ns cost -. g0;
        }
  | exception Holes.Vm.Out_of_memory -> Error `Oom
