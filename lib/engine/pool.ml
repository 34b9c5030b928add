(** The engine's one fan-out: run a batch of independent jobs on a few
    domains and collect each job's outcome.

    The experiment grids are embarrassingly parallel — thousands of
    independent trials, each owning its VM outright — so there is no
    queue and no long-lived worker: the calling domain is worker 0, the
    others are spawned for the batch, and every worker takes the next
    job index from one atomic counter until none is left.  Exceptions
    raised by a job are captured per job ([Failed]) so one crashed trial
    never takes down a sweep. *)

(** One domain per core but one by default, the caller included, so a
    core stays free for the rest of the machine. *)
let default_domains () : int = max 1 (Domain.recommended_domain_count () - 1)

(** Outcome of one job: the value, or the captured exception. *)
type 'a outcome = Done of 'a | Failed of { exn : string; backtrace : string }

type 'a result = {
  value : 'a outcome;
  worker : int;  (** index of the domain that ran the job *)
  duration_s : float;  (** wall-clock seconds the job took *)
}

(** Run [f 0 .. f (n-1)] on [min domains n] domains, the caller included,
    and return once every job has finished and every spawned domain has
    been joined.  Results come back indexed by job — scheduling order
    never leaks into the result array.  [on_done i r] (if given) fires on
    the worker as each job completes, concurrently with other jobs; it
    must be thread-safe.  If it raises, that worker stops, the others
    finish, and the first such exception is re-raised after the join. *)
let run_all ?(on_done : (int -> 'a result -> unit) option) ~(domains : int) ~(n : int)
    (f : int -> 'a) : 'a result array =
  if n < 0 then invalid_arg "Pool.run_all: negative job count";
  let results : 'a result option array = Array.make n None in
  let next = Atomic.make 0 in
  let rec work worker =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      let t0 = Unix.gettimeofday () in
      let value =
        match f i with
        | v -> Done v
        | exception e -> Failed { exn = Printexc.to_string e; backtrace = Printexc.get_backtrace () }
      in
      let r = { value; worker; duration_s = Unix.gettimeofday () -. t0 } in
      results.(i) <- Some r;
      Option.iter (fun k -> k i r) on_done;
      work worker
    end
  in
  let capture worker () = match work worker with () -> None | exception e -> Some e in
  let spawned =
    Array.init (max 0 (min domains n - 1)) (fun k -> Domain.spawn (capture (k + 1)))
  in
  let mine = capture 0 () in
  let first a b = match a with Some _ -> a | None -> b in
  Option.iter raise (Array.fold_left first mine (Array.map Domain.join spawned));
  Array.map (function Some r -> r | None -> assert false) results
