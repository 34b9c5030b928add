(** The hybrid DRAM/PCM tiering policy.

    Two composable mechanisms, selectable independently or together
    (DESIGN.md §16–17):

    - {e migrate}: MigrantStore-style virtual-memory-driven hot-page
      migration.  The OS tracks per-page write frequency from the
      device-write charge path and promotes write-hot PCM pages into
      DRAM frames; an epoch counter decays the frequencies and demotes
      pages that went cold, writing their dirty lines back to the
      page's (still reserved) PCM home.  [epoch] is the number of
      charged line writes between decay rounds.
    - {e caram}: CARAM-style content-aware line store.  A [ways]-way
      set-associative fingerprint cache in front of the PCM cells
      dedups lines whose exact content is already stored and absorbs
      trivially compressible (single-byte-pattern) lines, so neither
      consumes cell endurance.

    The policy lives here in [lib/pcm] — next to {!Wear_level} and
    {!Translate} — so both the device (caram) and the OS tier
    (migrate) can consume it without a dependency on [lib/core]. *)

type policy = {
  migrate_epoch : int option;  (** decay epoch in charged line writes; [None] = no migration *)
  caram_ways : int option;  (** content-cache associativity; [None] = no caram *)
}

let none : policy = { migrate_epoch = None; caram_ways = None }
let is_none (p : policy) : bool = p = none

let default_epoch = 2048
let default_ways = 8

(** The fraction of charged line writes that never wore a PCM cell:
    writes absorbed by promoted DRAM frames, content dedup or pattern
    compression, over the charged total.  [device_writes] counts every
    write that reached the device, the content store's absorptions
    included; DRAM-frame writes never reach it, so the charged total is
    the sum of the two.  0 when nothing was charged. *)
let absorption ~(device_writes : int) ~(dram_writes : int) ~(dedup_hits : int)
    ~(compressed : int) : float =
  let charged = device_writes + dram_writes in
  if charged = 0 then 0.0
  else float_of_int (dram_writes + dedup_hits + compressed) /. float_of_int charged

(* ------------------------------------------------------------------ *)
(* CLI surface: none | migrate[:epoch] | caram[:ways] | migrate+caram
   (the combined form accepts per-mechanism parameters on either side,
   e.g. "migrate:512+caram:4").                                        *)
(* ------------------------------------------------------------------ *)

let param_of ~(what : string) ~(default : int) (rest : string list) :
    (int, string) result =
  match rest with
  | [] -> Ok default
  | [ v ] -> (
      match int_of_string_opt v with
      | Some n when n > 0 -> Ok n
      | _ -> Error (Printf.sprintf "hybrid: %s must be a positive integer, got %S" what v))
  | _ -> Error (Printf.sprintf "hybrid: too many parameters for %s" what)

let of_cli (s : string) : (policy, string) result =
  let s = String.lowercase_ascii (String.trim s) in
  if s = "none" then Ok none
  else begin
    let merge acc part =
      match acc with
      | Error _ as e -> e
      | Ok p -> (
          match String.split_on_char ':' part with
          | "migrate" :: rest -> (
              if p.migrate_epoch <> None then Error "hybrid: duplicate migrate"
              else
                match param_of ~what:"migrate epoch" ~default:default_epoch rest with
                | Ok e -> Ok { p with migrate_epoch = Some e }
                | Error _ as e -> e)
          | "caram" :: rest -> (
              if p.caram_ways <> None then Error "hybrid: duplicate caram"
              else
                match param_of ~what:"caram ways" ~default:default_ways rest with
                | Ok w -> Ok { p with caram_ways = Some w }
                | Error _ as e -> e)
          | _ -> Error (Printf.sprintf "unknown hybrid policy %S (none|migrate[:N]|caram[:N]|migrate+caram)" part))
    in
    match String.split_on_char '+' s with
    | [] | [ "" ] -> Error "hybrid: empty policy"
    | parts -> List.fold_left merge (Ok none) parts
  end

let to_cli (p : policy) : string =
  match (p.migrate_epoch, p.caram_ways) with
  | None, None -> "none"
  | Some e, None -> Printf.sprintf "migrate:%d" e
  | None, Some w -> Printf.sprintf "caram:%d" w
  | Some e, Some w -> Printf.sprintf "migrate:%d+caram:%d" e w

(** Compact tag for config names and cache keys ("none", "mig2048",
    "car8", "mig2048car8"). *)
let short_name (p : policy) : string =
  match (p.migrate_epoch, p.caram_ways) with
  | None, None -> "none"
  | Some e, None -> Printf.sprintf "mig%d" e
  | None, Some w -> Printf.sprintf "car%d" w
  | Some e, Some w -> Printf.sprintf "mig%dcar%d" e w
