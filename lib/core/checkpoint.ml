module Config = Ucp_cache.Config
module Tech = Ucp_energy.Tech

(* v3: the grid fingerprint covers the refine mode and measurements
   carry the (additive) refine_* fields *)
let format_version = 3

(* ------------------------------------------------------------------ *)
(* decoding: journal lines are read back with Ucp_util.Json.  Its float
   numbers round-trip the writer exactly — %.17g floats and integers
   below 2^53.  A missing or ill-typed field makes the whole line
   undecodable ([parse_line] answers [None]). *)

module Json = Ucp_util.Json

exception Undecodable

let need = function Some v -> v | None -> raise Undecodable
let get conv key j = need (Option.bind (Json.member key j) conv)

(* [None] when the key is absent: journals written before the audit
   fields existed stay readable (format_version is unchanged — the
   fields are additive) *)
let get_opt conv key j = Option.map (fun v -> need (conv v)) (Json.member key j)

let to_bool = function Json.Bool b -> Some b | _ -> None

(* ------------------------------------------------------------------ *)
(* journal lines *)

(* %.17g round-trips any finite double exactly *)
let flt f = Printf.sprintf "%.17g" f

(* the refine fields sit flat and last inside the measurement object,
   so a refined record stream differs from an unrefined one only by a
   strippable suffix per measurement (the ci byte-identity check
   depends on this) *)
let refine_json (s : Ucp_refine.Explore.summary option) =
  match s with
  | None -> ""
  | Some s ->
    let open Ucp_refine.Explore in
    Printf.sprintf
      {|,"refine_mode":%s,"refine_nc_before":%d,"refine_nc":%d,"refine_ah_gained":%d,"refine_am_gained":%d,"refine_tau":%d,"refine_miss_bound":%d,"refine_quant":%s,"refine_states":%d,"refine_budget_hit":%b,"refine_budget_exhausted":%d,"refine_digest":%s|}
      (Report.json_string (Ucp_refine.Mode.to_string s.s_mode))
      s.s_nc_before s.s_nc_after s.s_ah_gained s.s_am_gained s.s_tau
      s.s_miss_bound
      (match s.s_quant with None -> "null" | Some q -> string_of_int q)
      s.s_states s.s_budget_hit s.s_budget_exhausted
      (Report.json_string s.s_digest)

let refine_of_json j : Ucp_refine.Explore.summary option =
  get_opt Json.to_str "refine_mode" j
  |> Option.map (fun mode ->
         {
           Ucp_refine.Explore.s_mode =
             need (Result.to_option (Ucp_refine.Mode.of_string mode));
           s_nc_before = get Json.to_int "refine_nc_before" j;
           s_nc_after = get Json.to_int "refine_nc" j;
           s_ah_gained = get Json.to_int "refine_ah_gained" j;
           s_am_gained = get Json.to_int "refine_am_gained" j;
           s_tau = get Json.to_int "refine_tau" j;
           s_miss_bound = get Json.to_int "refine_miss_bound" j;
           s_quant =
             (match need (Json.member "refine_quant" j) with
             | Json.Null -> None
             | v -> Some (need (Json.to_int v)));
           s_states = get Json.to_int "refine_states" j;
           s_budget_hit = get to_bool "refine_budget_hit" j;
           (* additive: absent in journals written before the demotion
              count existed *)
           s_budget_exhausted =
             Option.value ~default:0 (get_opt Json.to_int "refine_budget_exhausted" j);
           s_digest = get Json.to_str "refine_digest" j;
         })

let measurement_json (m : Pipeline.measurement) =
  Printf.sprintf
    {|{"tau":%d,"acet":%d,"energy_pj":%s,"miss_rate":%s,"executed":%d,"demand_misses":%d,"wcet_miss_bound":%d,"ah":%d,"am":%d,"nc":%d%s}|}
    m.Pipeline.tau m.Pipeline.acet (flt m.Pipeline.energy_pj)
    (flt m.Pipeline.miss_rate) m.Pipeline.executed m.Pipeline.demand_misses
    m.Pipeline.wcet_miss_bound m.Pipeline.ah m.Pipeline.am m.Pipeline.nc
    (refine_json m.Pipeline.refine)

let measurement_of_json j : Pipeline.measurement =
  {
    Pipeline.tau = get Json.to_int "tau" j;
    acet = get Json.to_int "acet" j;
    energy_pj = get Json.to_float "energy_pj" j;
    miss_rate = get Json.to_float "miss_rate" j;
    executed = get Json.to_int "executed" j;
    demand_misses = get Json.to_int "demand_misses" j;
    wcet_miss_bound = get Json.to_int "wcet_miss_bound" j;
    ah = get Json.to_int "ah" j;
    am = get Json.to_int "am" j;
    nc = get Json.to_int "nc" j;
    refine = refine_of_json j;
  }

let audit_json (a : Pipeline.audit) =
  match a with
  | Pipeline.Not_audited -> ""
  | Pipeline.Audited { checks; seconds } ->
    Printf.sprintf {|,"audit_checks":%d,"audit_s":%s|} checks (flt seconds)
  | Pipeline.Audit_skipped reason ->
    Printf.sprintf {|,"audit_skipped":%s|} (Report.json_string reason)

let audit_of_json j : Pipeline.audit =
  match get_opt Json.to_int "audit_checks" j with
  | Some checks ->
    let seconds = Option.value ~default:0.0 (get_opt Json.to_float "audit_s" j) in
    Pipeline.Audited { checks; seconds }
  | None -> (
    match get_opt Json.to_str "audit_skipped" j with
    | Some reason -> Pipeline.Audit_skipped reason
    | None -> Pipeline.Not_audited)

let record_line ~id (r : Experiments.record) =
  Printf.sprintf
    {|{"case":%s,"program":%s,"config_id":%s,"assoc":%d,"block_bytes":%d,"capacity":%d,"tech":%s,"policy":%s,"prefetches":%d,"rejected":%d%s%s,"original":%s,"optimized":%s}|}
    (Report.json_string id)
    (Report.json_string r.Experiments.program_name)
    (Report.json_string r.Experiments.config_id)
    r.Experiments.config.Config.assoc r.Experiments.config.Config.block_bytes
    r.Experiments.config.Config.capacity
    (Report.json_string r.Experiments.tech.Tech.label)
    (Report.json_string (Ucp_policy.to_string r.Experiments.policy))
    r.Experiments.prefetches r.Experiments.rejected
    (* additive generator provenance, recomputed from the program name
       (so a resume rewrite reproduces it byte for byte) *)
    (Report.gen_json r.Experiments.program_name)
    (audit_json r.Experiments.audit)
    (measurement_json r.Experiments.original)
    (measurement_json r.Experiments.optimized)

let tech_of_label label = List.find_opt (fun t -> t.Tech.label = label) Tech.all

let parse_line line =
  match Json.parse line with
  | Error _ -> None
  | Ok j -> (
    try
      let id = get Json.to_str "case" j in
      let record =
        {
          Experiments.program_name = get Json.to_str "program" j;
          config_id = get Json.to_str "config_id" j;
          config =
            Config.make
              ~assoc:(get Json.to_int "assoc" j)
              ~block_bytes:(get Json.to_int "block_bytes" j)
              ~capacity:(get Json.to_int "capacity" j);
          tech = need (tech_of_label (get Json.to_str "tech" j));
          policy =
            need (Result.to_option (Ucp_policy.of_string (get Json.to_str "policy" j)));
          original = measurement_of_json (need (Json.member "original" j));
          optimized = measurement_of_json (need (Json.member "optimized" j));
          prefetches = get Json.to_int "prefetches" j;
          rejected = get Json.to_int "rejected" j;
          audit = audit_of_json j;
        }
      in
      Some (id, record)
    with Undecodable | Invalid_argument _ -> None)

(* ------------------------------------------------------------------ *)
(* grid fingerprint *)

let fingerprint ?(policies = [ Ucp_policy.Lru ])
    ?(refine = Ucp_refine.Mode.Off) ~programs ~configs ~techs () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "ucp-checkpoint-v%d\n" format_version);
  List.iter
    (fun (name, p) ->
      Buffer.add_string buf
        (Printf.sprintf "p %s %d\n" name (Ucp_isa.Program.total_slots p)))
    programs;
  List.iter
    (fun (id, (c : Config.t)) ->
      Buffer.add_string buf
        (Printf.sprintf "k %s %d %d %d\n" id c.Config.assoc c.Config.block_bytes
           c.Config.capacity))
    configs;
  List.iter
    (fun (t : Tech.t) -> Buffer.add_string buf (Printf.sprintf "t %s\n" t.Tech.label))
    techs;
  List.iter
    (fun p ->
      Buffer.add_string buf (Printf.sprintf "y %s\n" (Ucp_policy.to_string p)))
    policies;
  Buffer.add_string buf
    (Printf.sprintf "r %s\n" (Ucp_refine.Mode.to_string refine));
  Digest.to_hex (Digest.string (Buffer.contents buf))

let header_line fingerprint =
  Printf.sprintf {|{"ucp_checkpoint":%d,"fingerprint":%s}|} format_version
    (Report.json_string fingerprint)

(* ------------------------------------------------------------------ *)
(* journal lifecycle *)

type t = {
  oc : out_channel;
  lock : Mutex.t;
  loaded : (string, Experiments.record) Hashtbl.t;
}

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let replay path ~fingerprint tbl =
  match read_lines path with
  | [] | (exception Sys_error _) -> ()
  | header :: rest ->
    (match Json.parse header with
    | Error _ ->
      failwith (Printf.sprintf "Checkpoint.start: %s: unreadable journal header" path)
    | Ok j ->
      let v = Option.bind (Json.member "ucp_checkpoint" j) Json.to_int in
      if v <> Some format_version then
        failwith
          (Printf.sprintf "Checkpoint.start: %s: unsupported journal version" path);
      let fp =
        Option.value ~default:"" (Option.bind (Json.member "fingerprint" j) Json.to_str)
      in
      if fp <> fingerprint then
        failwith
          (Printf.sprintf
             "Checkpoint.start: %s: sweep fingerprint mismatch (journal %s, grid %s) \
              — the checkpoint belongs to a different suite/config/tech grid"
             path fp fingerprint));
    let n = List.length rest in
    List.iteri
      (fun i line ->
        match parse_line line with
        | Some (id, record) -> Hashtbl.replace tbl id record
        | None ->
          (* a torn final line is the expected crash artifact; anything
             malformed earlier means real corruption *)
          if i < n - 1 then
            failwith
              (Printf.sprintf "Checkpoint.start: %s: corrupt journal line %d" path
                 (i + 2)))
      rest

(* durability: [flush] alone hands the bytes to the kernel page cache,
   where a power cut (as opposed to a mere process crash) can still eat
   them — every acknowledged journal write is fsynced to the device.
   The counter exists so a test can pin the sync-before-ack ordering. *)
let synced = Atomic.make 0

let synced_writes () = Atomic.get synced

let fsync_out oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc);
  Atomic.incr synced

(* a rename is only durable once the parent directory's entry is on
   disk; without this fsync the file can vanish across a power cut even
   though the rename "succeeded" *)
let fsync_dir path =
  let dir = Filename.dirname path in
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        (* some filesystems refuse fsync on a directory fd; losing the
           belt-and-braces sync there is not an error *)
        try
          Unix.fsync fd;
          Atomic.incr synced
        with Unix.Unix_error _ -> ())

let start ~path ~fingerprint ~resume =
  let loaded = Hashtbl.create 97 in
  if resume && Sys.file_exists path then begin
    replay path ~fingerprint loaded;
    (* rewrite the journal from what survived replay: this drops a torn
       trailing line instead of appending after it *)
    let oc = open_out path in
    output_string oc (header_line fingerprint);
    output_char oc '\n';
    Hashtbl.iter
      (fun id record ->
        output_string oc (record_line ~id record);
        output_char oc '\n')
      loaded;
    fsync_out oc;
    { oc; lock = Mutex.create (); loaded }
  end
  else begin
    let oc = open_out path in
    output_string oc (header_line fingerprint);
    output_char oc '\n';
    fsync_out oc;
    { oc; lock = Mutex.create (); loaded }
  end

let completed t = t.loaded

let record t ~id record =
  let line = record_line ~id record in
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      output_string t.oc line;
      output_char t.oc '\n';
      fsync_out t.oc)

let close t = close_out_noerr t.oc

let write_atomic ~path content =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out tmp in
  (match
     output_string oc content;
     fsync_out oc
   with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  Sys.rename tmp path;
  fsync_dir path
