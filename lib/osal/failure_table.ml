(** The OS failure table (paper Sec. 3.2.1): a DRAM-resident table with a
    per-PCM-page failure bitmap.  Uncompressed it is ~1.6% of the PCM pool
    (64 bits per 4 KB page); run-length encoding compresses it well while
    failures are few.  The table can be saved and restored across
    shutdowns, or rebuilt by scanning (modeled by [rebuild_from]). *)

open Holes_stdx

(* one failure bit per line *)
let lpp = Holes_pcm.Geometry.lines_per_page

type t = { bitmaps : Bitset.t array  (** indexed by PCM page *) }

let create ~(pcm_pages : int) : t = { bitmaps = Array.init pcm_pages (fun _ -> Bitset.create lpp) }

let npages (t : t) : int = Array.length t.bitmaps

let get (t : t) ~(page : int) : Bitset.t = t.bitmaps.(page)

let mark_failed (t : t) ~(page : int) ~(line : int) : unit = Bitset.set t.bitmaps.(page) line

let is_failed (t : t) ~(page : int) ~(line : int) : bool = Bitset.get t.bitmaps.(page) line

let failed_lines (t : t) ~(page : int) : int = Bitset.count t.bitmaps.(page)

let total_failed_lines (t : t) : int =
  Array.fold_left (fun acc b -> acc + Bitset.count b) 0 t.bitmaps

(** Raw (uncompressed) size in bits: 64 bits per page. *)
let raw_bits (t : t) : int = npages t * lpp

(* the bitmaps concatenated, one flag per PCM line *)
let concatenated (t : t) : bool array =
  Array.init (raw_bits t) (fun i -> Bitset.get t.bitmaps.(i / lpp) (i mod lpp))

(** Rebuild the table from a device-wide line failure map (the "eagerly
    scanning memory" recovery path of Sec. 3.2.1). *)
let rebuild_from (t : t) (device_map : Bitset.t) : unit =
  if Bitset.length device_map <> raw_bits t then
    invalid_arg "Failure_table.rebuild_from: size mismatch";
  Array.iter (fun bits -> Bitset.fill bits false) t.bitmaps;
  Bitset.iter_set device_map (fun l -> mark_failed t ~page:(l / lpp) ~line:(l mod lpp))

(** Serialize the table for persistent storage across shutdowns
    (Sec. 3.2.1: "the OS may save the failed line map to persistent
    storage and restore it on system initialization").  The format is a
    simple run-length encoding of the concatenated bitmaps. *)
let save (t : t) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "holes-ft1 %d\n" (npages t));
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%c%d " (if r.Rle.value then 'F' else 'o') r.Rle.length))
    (Rle.encode (concatenated t));
  Buffer.contents buf

(** Restore a table previously written by {!save}.  Returns [Error] on a
    corrupt image (the OS then falls back to rebuilding by scanning,
    Sec. 3.2.1). *)
let load (s : string) : (t, string) result =
  try
    Scanf.sscanf s "holes-ft1 %d\n %s@!" (fun npages rest ->
        let t = create ~pcm_pages:npages in
        let pos = ref 0 in
        String.split_on_char ' ' rest
        |> List.iter (fun tok ->
               if tok <> "" then begin
                 let value = tok.[0] = 'F' in
                 let len = int_of_string (String.sub tok 1 (String.length tok - 1)) in
                 if value then
                   for i = !pos to !pos + len - 1 do
                     mark_failed t ~page:(i / lpp) ~line:(i mod lpp)
                   done;
                 pos := !pos + len
               end);
        if !pos <> raw_bits t then Error "truncated failure-table image" else Ok t)
  with _ -> Error "corrupt failure-table image"

(** Size in bits under the RLE encoding of {!Holes_stdx.Rle} over the
    concatenated bitmaps — the compression statistic the paper alludes
    to. *)
let rle_bits (t : t) : int = Rle.encoded_bits (Rle.encode (concatenated t))

(** Fraction of the PCM pool the raw table occupies (the paper's ~1.6%:
    64 bits per 4 KB page = 8 B / 4096 B ≈ 0.2% per bitmap; with entry
    overheads the paper quotes 1.6% — we report the pure bitmap ratio). *)
let overhead_ratio (t : t) : float =
  let pool_bits = npages t * Holes_pcm.Geometry.page_bytes * 8 in
  if pool_bits = 0 then 0.0 else float_of_int (raw_bits t) /. float_of_int pool_bits
