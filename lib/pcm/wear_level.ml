(** Pluggable wear-leveling policies over one shared permutation core.

    The paper argues (Sec. 7.2, "Wear Leveling Considered Harmful") that
    uniformly wearing memory spreads failures out, fragmenting it, while
    concentrated wear keeps failures clustered and is more transparent to
    failure-aware software.  This module is the device's wear leveler
    ({!Device}): a live logical→slot permutation, above the clustering
    maps, plus a *mover* that perturbs it as writes accrue.  Three
    movers are modeled:

    - {e start-gap} (Qureshi et al., MICRO 2009 — cited as [17]): one
      slot is reserved as the gap; every [psi] writes the line adjacent
      to the gap moves into it and the gap advances (1 data copy).
    - {e random remap} (SoftWear-style, software-only): every [psi]
      writes, the written line swaps slots with a uniformly random
      partner (2 data copies + a map update).
    - {e decoder swap} (WoLFRaM-style programmable decoders): every
      [psi] writes, the written line swaps slots with a round-robin
      cursor partner (2 data copies + a decoder reprogram).

    All three maintain the permutation explicitly by swapping entries,
    which keeps the model honest — it is a permutation by construction —
    at O(1) per move.  Slots that become unusable below the leveler
    (wear-outs, clustering metadata) are {e frozen}: the mover never
    relocates data onto or off them again, so the logical view of a
    failure stays stable once the OS has published it. *)

open Holes_stdx

type policy =
  | Start_gap of { psi : int }
  | Random_remap of { psi : int }
  | Decoder_swap of { psi : int }

let psi_of = function
  | Start_gap { psi } | Random_remap { psi } | Decoder_swap { psi } -> psi

let validate_policy = function
  | Start_gap { psi } | Random_remap { psi } | Decoder_swap { psi } ->
      if psi <= 0 then invalid_arg "Wear_level: psi must be positive"

(* ---- CLI surface (mirrors Failure_model.of_cli and Hybrid.of_cli) ----- *)

let default_psi = 100

(** Parse a wear-level policy: [none], [startgap[:PSI]], [random[:PSI]]
    or [decoder[:PSI]] (PSI = writes between moves, default 100). *)
let of_cli (s : string) : (policy option, string) result =
  let fail () =
    Error
      (Printf.sprintf "expected none | startgap[:PSI] | random[:PSI] | decoder[:PSI], got %S" s)
  in
  let parse_psi = function
    | [] -> Ok default_psi
    | [ p ] -> (
        match int_of_string_opt p with
        | Some v when v > 0 -> Ok v
        | _ -> Error (Printf.sprintf "bad psi %S (want a positive integer)" p))
    | _ -> Error "too many ':' fields"
  in
  match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
  | [ "none" ] -> Ok None
  | "startgap" :: rest -> Result.map (fun psi -> Some (Start_gap { psi })) (parse_psi rest)
  | "random" :: rest -> Result.map (fun psi -> Some (Random_remap { psi })) (parse_psi rest)
  | "decoder" :: rest -> Result.map (fun psi -> Some (Decoder_swap { psi })) (parse_psi rest)
  | _ -> fail ()

let to_cli (p : policy option) : string =
  match p with
  | None -> "none"
  | Some (Start_gap { psi }) -> Printf.sprintf "startgap:%d" psi
  | Some (Random_remap { psi }) -> Printf.sprintf "random:%d" psi
  | Some (Decoder_swap { psi }) -> Printf.sprintf "decoder:%d" psi

(** Compact policy tag for config names / file paths. *)
let short_name (p : policy option) : string =
  match p with
  | None -> "none"
  | Some (Start_gap { psi }) -> Printf.sprintf "sg%d" psi
  | Some (Random_remap { psi }) -> Printf.sprintf "rr%d" psi
  | Some (Decoder_swap { psi }) -> Printf.sprintf "ds%d" psi

(** Data-movement callbacks supplied by the device: [copy] moves one
    line's payload between slots (charging wear at the destination),
    [swap] exchanges two slots' payloads (charging wear at both).  The
    device maps each slot through its clustering map to reach the
    physical line. *)
type io = { copy : src:int -> dst:int -> unit; swap : a:int -> b:int -> unit }

let null_io = { copy = (fun ~src:_ ~dst:_ -> ()); swap = (fun ~a:_ ~b:_ -> ()) }

type t = {
  n : int;  (** lines (logical and slot domains have the same size) *)
  map : int array;  (** logical line -> slot; a permutation *)
  inverse : int array;  (** slot -> logical line *)
  frozen_slot : Bitset.t;  (** slots pinned by unusability below the leveler *)
  frozen_logical : Bitset.t;  (** logical ends of pinned pairs + the gap owner *)
  rng : Xrng.t;  (** partner draws for [Random_remap] *)
  mutable policy : policy option;  (** [None] = paused: permutation kept, no moves *)
  mutable io : io;
  mutable gap_owner : int;
      (** logical line reserved to own the gap slot (start-gap), or -1.
          Its slot is the gap: it holds no software data, so moving data
          into it and re-pointing the owner is safe.  Reserved lines are
          reported unusable to the OS exactly like failures. *)
  mutable cursor : int;  (** round-robin partner for [Decoder_swap] *)
  mutable writes_since_move : int;
  mutable gap_moves : int;  (** start-gap movements (1 copy each) *)
  mutable remaps : int;  (** pair swaps performed (2 copies each) *)
  mutable copies : int;  (** total overhead line copies *)
  mutable meta_writes : int;  (** map-table / decoder reprogram writes *)
}

let create ?(policy : policy option) ~(nlines : int) ~(seed : int) () : t =
  if nlines <= 1 then invalid_arg "Wear_level.create: nlines must exceed 1";
  Option.iter validate_policy policy;
  {
    n = nlines;
    map = Array.init nlines Fun.id;
    inverse = Array.init nlines Fun.id;
    frozen_slot = Bitset.create nlines;
    frozen_logical = Bitset.create nlines;
    rng = Xrng.of_seed seed;
    policy;
    io = null_io;
    gap_owner = -1;
    cursor = 0;
    writes_since_move = 0;
    gap_moves = 0;
    remaps = 0;
    copies = 0;
    meta_writes = 0;
  }

let set_io (t : t) (io : io) : unit = t.io <- io

let policy (t : t) : policy option = t.policy

(** Slot currently holding logical line [l]. *)
let translate (t : t) (l : int) : int =
  if l < 0 || l >= t.n then invalid_arg "Wear_level.translate: out of range";
  t.map.(l)

(** Logical line currently held by slot [s]. *)
let inverse (t : t) (s : int) : int =
  if s < 0 || s >= t.n then invalid_arg "Wear_level.inverse: out of range";
  t.inverse.(s)

let gap_owner (t : t) : int = t.gap_owner

let swap_entries (t : t) (a : int) (b : int) : unit =
  if a <> b then begin
    let sa = t.map.(a) and sb = t.map.(b) in
    t.map.(a) <- sb;
    t.map.(b) <- sa;
    t.inverse.(sa) <- b;
    t.inverse.(sb) <- a
  end

let movable (t : t) (l : int) : bool =
  (not (Bitset.get t.frozen_logical l)) && not (Bitset.get t.frozen_slot t.map.(l))

(** Pin logical line [l] and its current slot: used when the leveler is
    installed mid-run over lines the OS already knows are unusable. *)
let freeze_pair (t : t) (l : int) : unit =
  Bitset.set t.frozen_logical l;
  Bitset.set t.frozen_slot t.map.(l)

(** The clustering map reports slot [slot] unusable.  Pins the
    (logical, slot) pair so no future move touches it and returns the
    logical line that just became unusable — or [None] when the pair
    was already pinned, or when the slot was the gap (the reserved
    owner was already published unusable at reservation time; losing
    the gap merely pauses start-gap until it is re-enabled). *)
let on_slot_unusable (t : t) ~(slot : int) : int option =
  if slot < 0 || slot >= t.n then invalid_arg "Wear_level.on_slot_unusable: out of range";
  if Bitset.get t.frozen_slot slot then None
  else begin
    Bitset.set t.frozen_slot slot;
    let l = t.inverse.(slot) in
    if l = t.gap_owner then begin
      Bitset.set t.frozen_logical l;
      t.gap_owner <- -1;
      None
    end
    else if Bitset.get t.frozen_logical l then None
    else begin
      Bitset.set t.frozen_logical l;
      Some l
    end
  end

(** Reserve a gap line for start-gap if the policy needs one and none
    exists.  Picks a movable line nearest mid-device — away from the
    region-end clustering metadata, which would otherwise freeze the gap
    at boot.  Returns the newly reserved logical line (the caller must
    publish it unusable, evacuating it first on a live device). *)
let ensure_gap (t : t) : int option =
  match t.policy with
  | Some (Start_gap _) when t.gap_owner < 0 ->
      let mid = t.n / 2 in
      let rec pick d =
        if d > t.n then None
        else begin
          let lo = mid - d and hi = mid + d in
          if lo >= 0 && movable t lo then Some lo
          else if hi < t.n && movable t hi then Some hi
          else pick (d + 1)
        end
      in
      let r = if movable t mid then Some mid else pick 1 in
      Option.iter
        (fun r ->
          t.gap_owner <- r;
          Bitset.set t.frozen_logical r)
        r;
      r
  | _ -> None

(* one start-gap step: the nearest movable line "before" the gap
   (cyclically) moves into it and the gap advances to its old slot *)
let move_gap (t : t) : unit =
  if t.gap_owner >= 0 then begin
    let gap = t.map.(t.gap_owner) in
    let rec find prev tries =
      if tries = 0 then -1
      else if
        (not (Bitset.get t.frozen_slot prev)) && not (Bitset.get t.frozen_logical t.inverse.(prev))
      then prev
      else find ((prev + t.n - 1) mod t.n) (tries - 1)
    in
    let prev = find ((gap + t.n - 1) mod t.n) (t.n - 1) in
    if prev >= 0 then begin
      t.io.copy ~src:prev ~dst:gap;
      swap_entries t t.gap_owner t.inverse.(prev);
      t.copies <- t.copies + 1;
      t.gap_moves <- t.gap_moves + 1
    end
  end

let swap_pair (t : t) (a : int) (b : int) : unit =
  t.io.swap ~a:t.map.(a) ~b:t.map.(b);
  swap_entries t a b;
  t.remaps <- t.remaps + 1;
  t.copies <- t.copies + 2;
  t.meta_writes <- t.meta_writes + 1

let random_remap (t : t) (l : int) : unit =
  if movable t l then begin
    let rec draw tries =
      if tries = 0 then ()
      else
        let b = Xrng.int t.rng t.n in
        if b <> l && movable t b then swap_pair t l b else draw (tries - 1)
    in
    draw 8
  end

let decoder_swap (t : t) (l : int) : unit =
  if movable t l then begin
    let rec advance tries =
      if tries = 0 then -1
      else begin
        let c = t.cursor in
        t.cursor <- (t.cursor + 1) mod t.n;
        if c <> l && movable t c then c else advance (tries - 1)
      end
    in
    let b = advance (t.n + 1) in
    if b >= 0 then swap_pair t l b
  end

(** Account one data write to logical line [l] (called {e before} the
    write translates, so a triggered move relocates the old payload and
    the incoming write lands at the post-move slot). *)
let on_data_write (t : t) (l : int) : unit =
  match t.policy with
  | None -> ()
  | Some p ->
      t.writes_since_move <- t.writes_since_move + 1;
      if t.writes_since_move >= psi_of p then begin
        t.writes_since_move <- 0;
        match p with
        | Start_gap _ -> move_gap t
        | Random_remap _ -> random_remap t l
        | Decoder_swap _ -> decoder_swap t l
      end

(** Switch the mover ([None] pauses: the permutation and frozen pairs
    are kept, so data and published failures stay where they are).
    Switching to start-gap may need a new gap — call {!ensure_gap}. *)
let set_policy (t : t) (p : policy option) : unit =
  Option.iter validate_policy p;
  t.policy <- p

let gap_moves (t : t) : int = t.gap_moves
let remaps (t : t) : int = t.remaps
let copies (t : t) : int = t.copies
let meta_writes (t : t) : int = t.meta_writes

(** Invariant check for property tests: [map]/[inverse] are mutually
    inverse permutations and frozen pairs line up. *)
let is_consistent (t : t) : bool =
  let seen = Array.make t.n false in
  let ok = ref true in
  Array.iter
    (fun s -> if s < 0 || s >= t.n || seen.(s) then ok := false else seen.(s) <- true)
    t.map;
  !ok
  && Array.for_all Fun.id (Array.init t.n (fun l -> t.inverse.(t.map.(l)) = l))
  && Array.for_all Fun.id
       (Array.init t.n (fun l ->
            (not (Bitset.get t.frozen_logical l))
            || l = t.gap_owner
            || Bitset.get t.frozen_slot t.map.(l)))

let check (t : t) : (unit, string) result =
  if is_consistent t then Ok ()
  else Error "wear leveler: map/inverse permutation invariant violated"

(** Test-only: corrupt the map without updating [inverse], to prove the
    verifier catches translation-consistency violations. *)
let unsafe_poke (t : t) ~(logical : int) ~(slot : int) : unit = t.map.(logical) <- slot
