(** The remembered set for generational (sticky mark bits) collection.

    The write barrier logs stores that create old→young references; a
    nursery collection treats the logged sources as additional roots.
    Duplicate-filtering is approximated with a coarse hash filter, as
    production barriers do. *)

open Holes_stdx

type t = {
  entries : Intvec.t;  (** source object ids *)
  mutable filter : int array;  (** coarse duplicate filter *)
  mutable barrier_hits : int;  (** total barrier slow-path executions *)
}

let filter_size = 4096

let create () : t =
  { entries = Intvec.create (); filter = Array.make filter_size (-1); barrier_hits = 0 }

(** Log a store of a reference to nursery object into [src].  Returns
    [true] when a new entry was recorded (slow path taken). *)
let record (t : t) ~(src : int) : bool =
  t.barrier_hits <- t.barrier_hits + 1;
  let slot = src land (filter_size - 1) in
  if t.filter.(slot) = src then false
  else begin
    t.filter.(slot) <- src;
    Intvec.push t.entries src;
    true
  end

let size (t : t) : int = Intvec.length t.entries

let iter (t : t) (f : int -> unit) : unit = Intvec.iter t.entries f

(* [record] sets a filter slot only while it pushes that source, so
   resetting each entry's slot leaves the whole filter at -1. *)
let clear (t : t) : unit =
  for i = 0 to Intvec.length t.entries - 1 do
    t.filter.(Intvec.get t.entries i land (filter_size - 1)) <- -1
  done;
  Intvec.clear t.entries

let barrier_hits (t : t) : int = t.barrier_hits
