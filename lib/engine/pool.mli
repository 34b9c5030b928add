(** The engine's one fan-out: run a batch of independent jobs on a few
    domains and collect each job's outcome.

    The experiment grids are embarrassingly parallel — thousands of
    independent trials, each owning its VM outright — so there is no
    queue and no long-lived worker: the calling domain is worker 0, the
    others are spawned for the batch, and every worker takes the next
    job index from one atomic counter until none is left.  Exceptions
    raised by a job are captured per job ({!constructor:Failed}) so one
    crashed trial never takes down a sweep. *)

val default_domains : unit -> int
(** [recommended_domain_count () - 1] (minimum 1): one domain per core
    but one, the caller included, so a core stays free for the rest of
    the machine. *)

type 'a outcome =
  | Done of 'a  (** the job returned normally *)
  | Failed of { exn : string; backtrace : string }
      (** the job raised; the exception is rendered to strings so
          outcomes cross domains safely *)

(** Outcome of one job: the value, or the captured exception. *)

type 'a result = {
  value : 'a outcome;
  worker : int;  (** index of the domain that ran the job (0: the caller) *)
  duration_s : float;  (** wall-clock seconds the job took *)
}
(** One job's outcome plus its scheduling facts (which never influence
    the value — see the determinism contract in [Engine]). *)

val run_all :
  ?on_done:(int -> 'a result -> unit) -> domains:int -> n:int -> (int -> 'a) -> 'a result array
(** [run_all ~domains ~n f] runs [f 0 .. f (n-1)] on [min domains n]
    domains: the calling domain as worker 0 and [min domains n - 1]
    spawned ones (none when [domains <= 1]).  It returns once every job
    has finished and every spawned domain has been joined.  Results come
    back indexed by job — scheduling order never leaks into the result
    array.  [on_done i r] (if given) fires on the worker as each job
    completes, concurrently with other jobs; it must be thread-safe.  If
    it raises, that worker stops taking jobs, the others run the rest,
    and after the join the first such exception is re-raised.

    @raise Invalid_argument if [n < 0]. *)
