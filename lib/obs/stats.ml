(* Cheap log2-bucket histograms.  See stats.mli. *)

let nbuckets = 64

(* [acc] holds sum, min and max unboxed, as [Cost] keeps its
   accumulators: a mutable float field of a mixed record boxes every
   store *)
type hist = {
  mutable count : int;
  acc : float array;  (* 0 = sum, 1 = min (infinity while empty), 2 = max *)
  buckets : int array;  (* buckets.(b) counts values in [2^(b-1), 2^b); b=0 holds v < 1 *)
}

let hist () : hist =
  { count = 0; acc = [| 0.0; infinity; neg_infinity |]; buckets = Array.make nbuckets 0 }

(* Bucket of a non-negative value: frexp gives v = m * 2^e with
   m in [0.5, 1), so 2^(e-1) <= v < 2^e and the bucket is e (clamped).
   Values below 1 (including 0) land in bucket 0. *)
let bucket_of (v : float) : int =
  if not (v >= 1.0) then 0
  else
    let _, e = Float.frexp v in
    if e >= nbuckets then nbuckets - 1 else e

(* [bucket_of (float_of_int n)] without the float: the bit length of
   [n], exact while the conversion is (below 2^53) *)
let bucket_of_int (n : int) : int =
  if n < 1 then 0
  else if n >= 1 lsl 53 then bucket_of (float_of_int n)
  else begin
    let x = ref n and b = ref 1 in
    if !x >= 1 lsl 32 then (x := !x lsr 32; b := !b + 32);
    if !x >= 1 lsl 16 then (x := !x lsr 16; b := !b + 16);
    if !x >= 1 lsl 8 then (x := !x lsr 8; b := !b + 8);
    if !x >= 1 lsl 4 then (x := !x lsr 4; b := !b + 4);
    if !x >= 1 lsl 2 then (x := !x lsr 2; b := !b + 2);
    if !x >= 2 then b := !b + 1;
    !b
  end

(* inlined, so that [observe_int]'s float stays unboxed *)
let[@inline] add (h : hist) (v : float) (b : int) : unit =
  h.count <- h.count + 1;
  let acc = h.acc in
  acc.(0) <- acc.(0) +. v;
  if v < acc.(1) then acc.(1) <- v;
  if v > acc.(2) then acc.(2) <- v;
  h.buckets.(b) <- h.buckets.(b) + 1

let observe (h : hist) (v : float) : unit = add h v (bucket_of v)
let observe_int (h : hist) (n : int) : unit = add h (float_of_int n) (bucket_of_int n)

let count (h : hist) : int = h.count
let total (h : hist) : float = h.acc.(0)
let mean (h : hist) : float = if h.count = 0 then 0.0 else h.acc.(0) /. float_of_int h.count
let max_value (h : hist) : float = if h.count = 0 then 0.0 else h.acc.(2)
let min_value (h : hist) : float = if h.count = 0 then 0.0 else h.acc.(1)

(* Upper bound of bucket [b]: 2^b (bucket 0 covers [0, 1)). *)
let bucket_upper (b : int) : float = Float.ldexp 1.0 b

let quantile ?(interp = false) (h : hist) (q : float) : float =
  if h.count = 0 then 0.0
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let target = max 1 (int_of_float (ceil (q *. float_of_int h.count))) in
    (* bucket holding the target rank, plus the rank count before it *)
    let rec find b acc =
      if b >= nbuckets - 1 then (b, acc)
      else
        let acc' = acc + h.buckets.(b) in
        if acc' >= target then (b, acc) else find (b + 1) acc'
    in
    let b, before = find 0 0 in
    if not interp then
      (* clamp the bucket bound by the actually observed extremes *)
      Float.max h.acc.(1) (Float.min (bucket_upper b) h.acc.(2))
    else begin
      (* sub-bucket linear interpolation: place the target rank
         proportionally between the bucket's edges, with the edges
         themselves anchored by the exact observed extremes — so
         [quantile ~interp:true h 1.0] is the exact maximum *)
      let inb = max 1 h.buckets.(b) in
      let lo = if b = 0 then 0.0 else Float.ldexp 1.0 (b - 1) in
      let hi = bucket_upper b in
      let lo = Float.max lo h.acc.(1) in
      let hi = Float.max lo (Float.min hi h.acc.(2)) in
      let frac = float_of_int (target - before) /. float_of_int inb in
      lo +. (frac *. (hi -. lo))
    end
  end

let merge (into : hist) (src : hist) : unit =
  into.count <- into.count + src.count;
  into.acc.(0) <- into.acc.(0) +. src.acc.(0);
  if src.count > 0 then begin
    if src.acc.(1) < into.acc.(1) then into.acc.(1) <- src.acc.(1);
    if src.acc.(2) > into.acc.(2) then into.acc.(2) <- src.acc.(2)
  end;
  Array.iteri (fun i n -> into.buckets.(i) <- into.buckets.(i) + n) src.buckets

let merged (hs : hist list) : hist =
  let h = hist () in
  List.iter (merge h) hs;
  h

let copy (h : hist) : hist =
  { count = h.count; acc = Array.copy h.acc; buckets = Array.copy h.buckets }

let to_fields ~(prefix : string) (h : hist) : (string * float) list =
  [
    (prefix ^ "_count", float_of_int h.count);
    (prefix ^ "_mean", mean h);
    (prefix ^ "_p50", quantile h 0.50);
    (prefix ^ "_p99", quantile h 0.99);
    (prefix ^ "_max", max_value h);
  ]

let summary_string (h : hist) : string =
  Printf.sprintf "n=%d mean=%.1f p50=%.0f p99=%.0f max=%.1f" h.count (mean h) (quantile h 0.5)
    (quantile h 0.99) (max_value h)

(* running moments: count / sum / sum of squares *)

type moments = { mutable m_count : int; mutable m_sum : float; mutable m_sumsq : float }

let moments () : moments = { m_count = 0; m_sum = 0.0; m_sumsq = 0.0 }

let accumulate (m : moments) (v : float) : unit =
  m.m_count <- m.m_count + 1;
  m.m_sum <- m.m_sum +. v;
  m.m_sumsq <- m.m_sumsq +. (v *. v)

let moments_mean (m : moments) : float =
  if m.m_count = 0 then 0.0 else m.m_sum /. float_of_int m.m_count

let moments_stddev (m : moments) : float =
  if m.m_count = 0 then 0.0
  else
    let n = float_of_int m.m_count in
    let mean = m.m_sum /. n in
    sqrt (Float.max 0.0 ((m.m_sumsq /. n) -. (mean *. mean)))

let cov (m : moments) : float =
  let mean = moments_mean m in
  if mean <= 0.0 then 0.0 else moments_stddev m /. mean
