(** Swapping imperfect pages (paper Sec. 3.2.3).

    When data from an imperfect page (possibly on disk) must move to
    another physical page, the OS has three options:
    1. swap into a perfect page;
    2. swap into an imperfect page with *different* failures, informing
       the runtime of the new failure map via an up-call (the runtime may
       veto, e.g. when pinned objects sit on now-failed lines);
    3. with failure clustering, map onto any page with the same number or
       fewer failures — clustered failure maps make "failures are a
       subset" reduce to a count comparison. *)

open Holes_stdx

type policy =
  | To_perfect
  | Compatible_imperfect  (** destination failures ⊆ source failures *)
  | Clustered_count  (** clustering: destination failure count <= source *)

(* Are [dest_map] failures compatible with [src_map] under [policy]?  A
   destination is trivially compatible when its failures are a subset of
   the source's: every hole the runtime already avoids stays a hole. *)
let compatible ~(policy : policy) ~(src_map : Bitset.t) ~(dest_map : Bitset.t) : bool =
  match policy with
  | To_perfect -> Bitset.count dest_map = 0
  | Compatible_imperfect -> Bitset.subset dest_map src_map
  | Clustered_count ->
      (* valid only when both maps are clustered at the same end; the
         count comparison then implies the subset relation *)
      Bitset.count dest_map <= Bitset.count src_map

(** [swap_in t ~policy ~src_map] chooses a free physical destination page
    for data whose source page had failure map [src_map].  Falls back to
    a perfect page when no compatible imperfect page exists (option 2's
    "the OS can try another imperfect page or fall back to a perfect
    page").  Returns the destination's physical page id, or [None] when
    memory is exhausted. *)
let swap_in (pools : Pools.t) ~(policy : policy) ~(src_map : Bitset.t) : int option =
  let try_imperfect () =
    (* scan the imperfect free list for a compatible page *)
    let rec pick tried =
      match Pools.alloc_imperfect pools with
      | None ->
          (* restore pages we rejected *)
          List.iter (Pools.free pools) tried;
          None
      | Some phys ->
          let dest_map = Pools.failures pools phys in
          if compatible ~policy ~src_map ~dest_map then begin
            List.iter (Pools.free pools) tried;
            Some phys
          end
          else pick (phys :: tried)
    in
    pick []
  in
  let perfect () = Pools.alloc_perfect pools in
  match policy with
  | To_perfect -> perfect ()
  | Compatible_imperfect | Clustered_count -> (
      match try_imperfect () with Some o -> Some o | None -> perfect ())
