(** Plain-text aligned tables for the benchmark harness output.

    Every figure/table reproduction prints through this module so the
    bench output is uniform and easy to diff against EXPERIMENTS.md. *)

type align = Left | Right

type t = {
  title : string;
  headers : string list;
  aligns : align list;
  mutable rows : string list list; (* reversed *)
}

let create ~(title : string) ~(headers : string list) ?(aligns : align list option) () : t =
  let aligns =
    match aligns with
    | Some a ->
        if List.length a <> List.length headers then
          invalid_arg "Table.create: aligns/headers length mismatch";
        a
    | None -> List.map (fun _ -> Right) headers
  in
  { title; headers; aligns; rows = [] }

let add_row (t : t) (cells : string list) : unit =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: wrong number of cells";
  t.rows <- cells :: t.rows

let render (t : t) : string =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row -> List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) row)
    all;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  let pad align w s =
    let n = w - String.length s in
    if n <= 0 then s
    else match align with Left -> s ^ String.make n ' ' | Right -> String.make n ' ' ^ s
  in
  let emit_row row =
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad (List.nth t.aligns i) widths.(i) c))
      row;
    Buffer.add_char buf '\n'
  in
  emit_row t.headers;
  let rule = String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths)) in
  Buffer.add_string buf (rule ^ "\n");
  List.iter emit_row rows;
  Buffer.contents buf

let print (t : t) : unit = print_string (render t)
