(** Allocation trace record/replay.

    A trace captures a profile's allocation stream as data, so different
    collector configurations can be driven by *byte-identical* workloads
    (the moral equivalent of the paper's replay-compilation methodology,
    which removes nondeterminism between compared configurations).  It
    is exactly the stream {!Generator.run} draws from the same seed, and
    replays through the same driver. *)

type t = { profile : Profile.t; events : Generator.event array }

(** Record the allocation stream [profile] would produce with [seed]. *)
let record ?(seed = 7) (profile : Profile.t) : t =
  let rng = Holes_stdx.Xrng.of_seed seed in
  { profile; events = Array.of_seq (Generator.events ~rng profile) }

(** Replay a recorded trace against [vm]. *)
let replay (vm : Holes.Vm.t) (t : t) : Generator.result =
  Generator.drive vm t.profile (Array.to_seq t.events)
