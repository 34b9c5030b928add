(** A classic array-backed binary min-heap keyed by [int].

    The workload executor keeps a death clock — objects ordered by the
    bytes-allocated time at which they become unreachable — and this heap
    serves that priority queue. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable size : int;
  dummy : 'a;
}

let create ~(dummy : 'a) : 'a t =
  { keys = Array.make 16 0; vals = Array.make 16 dummy; size = 0; dummy }

let length (t : 'a t) : int = t.size

let grow (t : 'a t) : unit =
  let cap = Array.length t.keys in
  let keys = Array.make (cap * 2) 0 in
  let vals = Array.make (cap * 2) t.dummy in
  Array.blit t.keys 0 keys 0 t.size;
  Array.blit t.vals 0 vals 0 t.size;
  t.keys <- keys;
  t.vals <- vals

let swap t i j =
  let k = t.keys.(i) and v = t.vals.(i) in
  t.keys.(i) <- t.keys.(j);
  t.vals.(i) <- t.vals.(j);
  t.keys.(j) <- k;
  t.vals.(j) <- v

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.keys.(i) < t.keys.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && t.keys.(l) < t.keys.(!smallest) then smallest := l;
  if r < t.size && t.keys.(r) < t.keys.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push (t : 'a t) ~(key : int) (v : 'a) : unit =
  if t.size = Array.length t.keys then grow t;
  t.keys.(t.size) <- key;
  t.vals.(t.size) <- v;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

(** Key of the minimum element, if any. *)
let min_key (t : 'a t) : int option = if t.size = 0 then None else Some t.keys.(0)

(** Remove and return the minimum (key, value). *)
let pop (t : 'a t) : (int * 'a) option =
  if t.size = 0 then None
  else begin
    let k = t.keys.(0) and v = t.vals.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.keys.(0) <- t.keys.(t.size);
      t.vals.(0) <- t.vals.(t.size);
      sift_down t 0
    end;
    t.vals.(t.size) <- t.dummy;
    Some (k, v)
  end
