module Checkpoint = Ucp_core.Checkpoint
module Experiments = Ucp_core.Experiments
module Crc32 = Ucp_util.Crc32
module Fault = Ucp_core.Fault

type t = {
  dir : string;
  lock : Mutex.t;  (* serializes put/quarantine on one entry dir *)
  mutable quarantined : int;
  mutable corruptions_injected : int;
}

let store_quarantined_total () =
  Ucp_obs.Metrics.counter "store_quarantined_total"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let contains_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n > 0 && go 0

let open_ ~dir =
  mkdir_p dir;
  (* crash-only startup: a kill -9 can leave half-written temp files
     behind; they are garbage by construction (the rename never
     happened) and are swept here rather than by an offline tool *)
  Array.iter
    (fun name ->
      if contains_substring ~sub:".tmp." name then
        try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    (Sys.readdir dir);
  { dir; lock = Mutex.create (); quarantined = 0; corruptions_injected = 0 }

let dir t = t.dir

(* content address: the digest covers the case's own singleton-grid
   fingerprint (geometry, program identity, refine mode, journal format
   version) plus its id, so a regenerated workload, a different refine
   mode or a format bump changes the key instead of resurrecting stale
   bytes *)
let key ?refine (c : Experiments.case) =
  let fingerprint =
    Checkpoint.fingerprint
      ~policies:[ c.Experiments.case_policy ]
      ?refine
      ~programs:[ (c.Experiments.case_program_name, c.Experiments.case_program) ]
      ~configs:[ (c.Experiments.case_config_id, c.Experiments.case_config) ]
      ~techs:[ c.Experiments.case_tech ] ()
  in
  Digest.to_hex
    (Digest.string (fingerprint ^ "\x00" ^ Experiments.case_id c))

let path t ~key = Filename.concat t.dir (key ^ ".rec")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* entry layout: "<8-hex crc32 of the rest>\n<record line>\n" *)
let encode line = Crc32.to_hex (Crc32.string (line ^ "\n")) ^ "\n" ^ line ^ "\n"

let decode content =
  match String.index_opt content '\n' with
  | Some 8 ->
    let header = String.sub content 0 8 in
    let rest = String.sub content 9 (String.length content - 9) in
    if
      String.for_all
        (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
        header
      && Crc32.to_hex (Crc32.string rest) = header
      && String.length rest > 0
      && rest.[String.length rest - 1] = '\n'
    then Some (String.sub rest 0 (String.length rest - 1))
    else None
  | Some _ | None -> None

let note_quarantined t =
  t.quarantined <- t.quarantined + 1;
  Ucp_obs.Metrics.incr (store_quarantined_total ())

(* a corrupt entry is never deleted: it is moved aside with its bytes
   intact, so a failure that keeps recurring can be examined, and the
   key becomes a clean miss that the caller recomputes *)
let quarantine_locked t ~key reason =
  let p = path t ~key in
  (try Sys.rename p (p ^ ".quarantine") with Sys_error _ -> ());
  note_quarantined t;
  Ucp_obs.Log.warn "store: quarantined entry %s (%s)" key reason

let quarantine t ~key reason =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () -> quarantine_locked t ~key reason)

let find t ~key =
  let p = path t ~key in
  match read_file p with
  | exception Sys_error _ -> None
  | content -> (
    match decode content with
    | Some line -> Some line
    | None ->
      (* torn write, bit rot, or an injected corruption: self-heal by
         quarantining and reporting a miss — never fatal *)
      Mutex.lock t.lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.lock)
        (fun () ->
          (* re-check under the lock: a concurrent reader may have
             already quarantined (and a writer re-put) this key *)
          match read_file p with
          | exception Sys_error _ -> None
          | content -> (
            match decode content with
            | Some line -> Some line
            | None ->
              quarantine_locked t ~key "checksum mismatch";
              None)))

(* deliberately scribble on the persisted payload — models bit rot /
   a torn sector between daemon runs; one-shot per Fault hook *)
let scribble t p =
  match read_file p with
  | exception Sys_error _ -> ()
  | content when String.length content > 9 ->
    let b = Bytes.of_string content in
    let i = 9 + ((Bytes.length b - 9) / 2) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
    let oc = open_out_bin p in
    output_bytes oc b;
    close_out oc;
    t.corruptions_injected <- t.corruptions_injected + 1
  | _ -> ()

let put t ~id ~key line =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      let p = path t ~key in
      Checkpoint.write_atomic ~path:p (encode line);
      if Fault.corrupt_store id then scribble t p)

let quarantined t =
  Mutex.lock t.lock;
  let n = t.quarantined in
  Mutex.unlock t.lock;
  n

let corruptions_injected t =
  Mutex.lock t.lock;
  let n = t.corruptions_injected in
  Mutex.unlock t.lock;
  n
