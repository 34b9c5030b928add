(** Growable int vectors — the workhorse container of the heap simulator
    (per-block object lists, nursery lists, remembered sets).  Amortized
    O(1) push; no boxing. *)

type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 16) () : t = { data = Array.make (max 1 capacity) 0; len = 0 }

let length (t : t) : int = t.len

let clear (t : t) : unit = t.len <- 0

let push (t : t) (x : int) : unit =
  if t.len = Array.length t.data then begin
    let d = Array.make (2 * Array.length t.data) 0 in
    Array.blit t.data 0 d 0 t.len;
    t.data <- d
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get (t : t) (i : int) : int =
  if i < 0 || i >= t.len then invalid_arg "Intvec.get: out of bounds";
  t.data.(i)

let set (t : t) (i : int) (x : int) : unit =
  if i < 0 || i >= t.len then invalid_arg "Intvec.set: out of bounds";
  t.data.(i) <- x

(** [pop_or t ~default] removes and returns the last element, or
    [default] when empty.  Allocates nothing, unlike an option-returning
    pop. *)
let[@inline] pop_or (t : t) ~(default : int) : int =
  if t.len = 0 then default
  else begin
    t.len <- t.len - 1;
    Array.unsafe_get t.data t.len
  end

(** Unchecked read — callers guarantee [0 <= i < length t]. *)
let[@inline] unsafe_get (t : t) (i : int) : int = Array.unsafe_get t.data i

(** Iterate without bounds-check overhead. *)
let iter (t : t) (f : int -> unit) : unit =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

(** Drop the first [n] elements, shifting the rest down (order kept).
    [n] is clamped to the length. *)
let drop_prefix (t : t) (n : int) : unit =
  if n > 0 then begin
    let n = min n t.len in
    let keep = t.len - n in
    Array.blit t.data n t.data 0 keep;
    t.len <- keep
  end

(** Keep only elements satisfying [p], preserving order. *)
let filter_in_place (t : t) (p : int -> bool) : unit =
  let j = ref 0 in
  for i = 0 to t.len - 1 do
    if p t.data.(i) then begin
      t.data.(!j) <- t.data.(i);
      incr j
    end
  done;
  t.len <- !j

let to_list (t : t) : int list =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.data.(i) :: acc) in
  go (t.len - 1) []
