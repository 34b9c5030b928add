(* Torture driver: run seeded fuzz schedules from Holes_exp.Torture and
   fail loudly (with a one-line repro command) on any invariant
   violation.  OOM on the deliberately tiny torture heaps is a
   legitimate outcome and does not fail the run. *)

module T = Holes_exp.Torture

(* "0..99", "17", or a comma list mixing both: "3,5,9..12" *)
let parse_seeds (spec : string) : (int list, string) result =
  let parse_part (p : string) =
    match String.index_opt p '.' with
    | None -> (
        match int_of_string_opt p with
        | Some n -> Ok [ n ]
        | None -> Error (Printf.sprintf "bad seed %S" p))
    | Some i -> (
        let lo = String.sub p 0 i in
        let hi = String.sub p (i + 2) (String.length p - i - 2) in
        if i + 1 >= String.length p || p.[i + 1] <> '.' then
          Error (Printf.sprintf "bad range %S (use LO..HI)" p)
        else
          match (int_of_string_opt lo, int_of_string_opt hi) with
          | Some lo, Some hi when lo <= hi -> Ok (List.init (hi - lo + 1) (fun k -> lo + k))
          | _ -> Error (Printf.sprintf "bad range %S (use LO..HI)" p))
  in
  let parts = String.split_on_char ',' (String.trim spec) in
  List.fold_left
    (fun acc p ->
      match (acc, parse_part (String.trim p)) with
      | Ok seeds, Ok more -> Ok (seeds @ more)
      | (Error _ as e), _ -> e
      | _, (Error _ as e) -> e)
    (Ok []) parts

let run (seeds_spec : string) (steps : int) (quiet : bool) : int =
  match parse_seeds seeds_spec with
  | Error msg ->
      Printf.eprintf "torture: %s\n" msg;
      2
  | Ok seeds ->
      let violations = ref 0 in
      let ooms = ref 0 in
      List.iter
        (fun seed ->
          let o = T.run_one ~steps ~seed () in
          let status =
            match o.T.violation with
            | Some _ -> "VIOLATION"
            | None -> if o.T.completed then "ok" else "oom"
          in
          if not o.T.completed then incr ooms;
          if (not quiet) || o.T.violation <> None then
            Printf.printf
              "seed %3d  %-34s %-9s steps=%d allocs=%d inject=%d churn=%d wl=%d hyb=%d \
               inc=%d gcs=%d verifies=%d checks=%d\n"
              o.T.seed o.T.config status o.T.steps_run o.T.allocs o.T.injections o.T.churns
              o.T.wl_toggles o.T.hyb_toggles o.T.inc_toggles o.T.gcs
              (o.T.explicit_verifies + o.T.verify_passes)
              o.T.verify_checks;
          match o.T.violation with
          | None -> ()
          | Some msg ->
              incr violations;
              Printf.printf "  %s\n  repro: %s\n" msg (T.repro_command ~seed ~steps))
        seeds;
      Printf.printf "torture: %d seeds, %d oom, %d violations\n" (List.length seeds) !ooms
        !violations;
      if !violations > 0 then 1 else 0

open Cmdliner

let seeds_arg =
  let doc = "Seeds to run: a number, LO..HI range, or comma list (e.g. 0..99)." in
  Arg.(value & opt string "0..19" & info [ "seeds"; "s" ] ~docv:"SPEC" ~doc)

let steps_arg =
  let doc = "Fuzz steps per seed." in
  Arg.(value & opt int T.default_steps & info [ "steps" ] ~docv:"N" ~doc)

let quiet_arg =
  let doc = "Only print violations and the final summary." in
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc)

let cmd =
  let doc = "torture the failure-aware collector with seeded fuzz schedules" in
  Cmd.v
    (Cmd.info "torture" ~doc)
    Term.(const run $ seeds_arg $ steps_arg $ quiet_arg)

let () = exit (Cmd.eval' cmd)
