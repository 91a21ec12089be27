(* Tests for Ucp_core: the pipeline façade, the experiment sweep, and
   the figure aggregations. *)

module Config = Ucp_cache.Config
module Tech = Ucp_energy.Tech
module Pipeline = Ucp_core.Pipeline
module Experiments = Ucp_core.Experiments
module Report = Ucp_core.Report

let program = Ucp_workloads.Suite.find "fft1"
let config = Config.make ~assoc:2 ~block_bytes:16 ~capacity:256

let test_measure_consistency () =
  let m = Pipeline.measure program config Tech.nm45 in
  Alcotest.(check bool) "tau positive" true (m.Pipeline.tau > 0);
  Alcotest.(check bool) "acet within wcet" true (m.Pipeline.acet <= m.Pipeline.tau);
  Alcotest.(check bool) "energy positive" true (m.Pipeline.energy_pj > 0.0);
  Alcotest.(check bool) "miss rate sane" true
    (m.Pipeline.miss_rate >= 0.0 && m.Pipeline.miss_rate <= 1.0)

let test_measure_deterministic () =
  let a = Pipeline.measure ~seed:3 program config Tech.nm45 in
  let b = Pipeline.measure ~seed:3 program config Tech.nm45 in
  Alcotest.(check int) "same acet" a.Pipeline.acet b.Pipeline.acet

let test_compare_optimized_guarantee () =
  let cmp = Pipeline.compare_optimized program config Tech.nm45 in
  Alcotest.(check bool) "Theorem 1 via the facade" true
    (cmp.Pipeline.optimized.Pipeline.tau <= cmp.Pipeline.original.Pipeline.tau)

(* small synthetic sweep for the aggregation functions *)
let small_records =
  lazy
    (Experiments.sweep
       ~programs:[ ("fft1", Ucp_workloads.Suite.find "fft1"); ("crc", Ucp_workloads.Suite.find "crc") ]
       ~configs:
         [
           ("a", Config.make ~assoc:2 ~block_bytes:16 ~capacity:256);
           ("b", Config.make ~assoc:2 ~block_bytes:16 ~capacity:512);
           ("c", Config.make ~assoc:2 ~block_bytes:16 ~capacity:1024);
         ]
       ~techs:[ Tech.nm45; Tech.nm32 ] ())

let test_sweep_cardinality () =
  Alcotest.(check int) "2 x 3 x 2 records" 12 (List.length (Lazy.force small_records))

let test_figure3_rows () =
  let rows = Experiments.figure3 (Lazy.force small_records) in
  Alcotest.(check int) "one row per capacity" 3 (List.length rows);
  List.iter
    (fun (r : Experiments.size_row) ->
      Alcotest.(check int) "cases per size" 4 r.Experiments.cases;
      Alcotest.(check bool) "wcet improvement sane" true
        (r.Experiments.wcet_improvement >= -0.001 && r.Experiments.wcet_improvement <= 1.0))
    rows

let test_figure4_rows () =
  let rows = Experiments.figure4 (Lazy.force small_records) in
  List.iter
    (fun (r : Experiments.miss_row) ->
      Alcotest.(check bool) "miss after <= before (on average)" true
        (r.Experiments.miss_after <= r.Experiments.miss_before +. 1e-9))
    rows

let test_figure5_join () =
  let rows = Experiments.figure5 (Lazy.force small_records) in
  (* halves exist for 512 and 1024; quarters for 1024 only *)
  let halves = List.filter (fun (r : Experiments.downsize_row) -> r.Experiments.factor = 2) rows in
  let quarters = List.filter (fun (r : Experiments.downsize_row) -> r.Experiments.factor = 4) rows in
  Alcotest.(check int) "half rows" 2 (List.length halves);
  Alcotest.(check int) "quarter rows" 1 (List.length quarters);
  List.iter
    (fun (r : Experiments.downsize_row) ->
      Alcotest.(check int) "cases joined" 4 r.Experiments.cases)
    rows

let test_figure7_theorem1 () =
  let s = Experiments.figure7 (Lazy.force small_records) in
  Alcotest.(check bool) "no 32nm case grew" true s.Experiments.all_non_increasing;
  Alcotest.(check int) "only 32nm cases" 6 (List.length s.Experiments.ratios)

let test_figure8_rows () =
  let rows = Experiments.figure8 (Lazy.force small_records) in
  List.iter
    (fun (r : Experiments.exec_row) ->
      Alcotest.(check bool) "ratio >= 1" true (r.Experiments.exec_ratio >= 1.0 -. 1e-9);
      Alcotest.(check bool) "max >= avg" true
        (r.Experiments.max_ratio >= r.Experiments.exec_ratio -. 1e-9))
    rows

let test_tables () =
  Alcotest.(check int) "table1 has 37 rows" 37 (List.length (Experiments.table1 ()));
  Alcotest.(check int) "table2 has 36 rows" 36 (List.length (Experiments.table2 ()))

let test_report_rendering () =
  let records = Lazy.force small_records in
  List.iter
    (fun s -> Alcotest.(check bool) "non-empty" true (String.length s > 40))
    [
      Report.table1 ();
      Report.table2 ();
      Report.figure3 records;
      Report.figure4 records;
      Report.figure5 records;
      Report.figure7 records;
      Report.figure8 records;
      Report.headline records;
    ]

let test_quick_configs_subset () =
  List.iter
    (fun (id, c) ->
      Alcotest.(check bool) (id ^ " in table 2") true
        (List.exists (fun (_, c') -> Config.equal c c') Experiments.default_configs))
    Experiments.quick_configs

(* ------------------------------------------------------------------ *)
(* the parallel sweep engine *)

module Parallel = Ucp_core.Parallel

let test_parallel_map_order () =
  let items = Array.init 100 (fun i -> i) in
  let out = Parallel.map ~jobs:4 (fun i -> i * i) items in
  Alcotest.(check (array int)) "input order" (Array.map (fun i -> i * i) items) out

let test_parallel_map_empty () =
  Alcotest.(check (array int)) "empty" [||] (Parallel.map ~jobs:2 (fun i -> i) [||])

let test_parallel_map_exception () =
  Alcotest.check_raises "first failure re-raised" (Failure "boom") (fun () ->
      ignore
        (Parallel.map ~jobs:2
           (fun i -> if i = 5 then failwith "boom" else i)
           (Array.init 10 (fun i -> i))))

let test_parallel_map_progress () =
  let total_items = 20 in
  let seen = ref [] in
  let out =
    Parallel.map ~jobs:3
      ~progress:(fun ~done_ ~total ->
        Alcotest.(check int) "total" total_items total;
        seen := done_ :: !seen)
      (fun i -> i)
      (Array.init total_items (fun i -> i))
  in
  Alcotest.(check int) "all results" total_items (Array.length out);
  let seen = List.rev !seen in
  Alcotest.(check bool) "strictly increasing" true
    (List.for_all2 ( < ) (0 :: List.filteri (fun i _ -> i < List.length seen - 1) seen) seen);
  Alcotest.(check int) "last reports total" total_items
    (List.nth seen (List.length seen - 1))

let test_pool_rejects_bad_jobs () =
  Alcotest.check_raises "jobs 0" (Invalid_argument "Parallel.create: jobs must be positive")
    (fun () -> ignore (Parallel.create ~jobs:0 ()))

(* the ISSUE's headline guarantee: the parallel engine's records are
   identical, record for record, to the sequential sweep's — on a slice
   of the quick-config grid kept small enough for CI *)
let det_programs =
  [ ("fft1", Ucp_workloads.Suite.find "fft1"); ("crc", Ucp_workloads.Suite.find "crc") ]

let det_sequential =
  lazy (Experiments.sweep ~programs:det_programs ~configs:Experiments.quick_configs ())

let check_sweep_equal jobs =
  let seq = Lazy.force det_sequential in
  let par =
    Parallel.sweep ~programs:det_programs ~configs:Experiments.quick_configs ~jobs ()
  in
  Alcotest.(check int) "cardinality" (List.length seq)
    (List.length par.Parallel.records);
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "record %d identical (%s@%s)" i a.Experiments.program_name
           a.Experiments.config_id)
        true (a = b))
    (List.combine seq par.Parallel.records);
  Alcotest.(check bool) "wall time measured" true (par.Parallel.wall_s >= 0.0);
  Alcotest.(check bool) "stage timers populated" true
    (Ucp_core.Pipeline.total_timings par.Parallel.timings > 0.0);
  Alcotest.(check int) "case count" (List.length seq) par.Parallel.cases

let test_parallel_sweep_deterministic () = check_sweep_equal 4
let test_parallel_sweep_single_worker () = check_sweep_equal 1

(* each (program, configuration) is one work item, so the memoized
   analysis shared across the technology axis runs once per key and
   the work counters do not depend on the worker count *)
let test_parallel_sweep_counters_jobs_invariant () =
  let module Metrics = Ucp_obs.Metrics in
  let configs =
    [
      ("a", Config.make ~assoc:2 ~block_bytes:16 ~capacity:256);
      ("b", Config.make ~assoc:2 ~block_bytes:16 ~capacity:512);
    ]
  in
  let counters jobs =
    Metrics.enable ();
    Metrics.reset ();
    Fun.protect ~finally:Metrics.disable (fun () ->
        ignore (Parallel.sweep ~programs:det_programs ~configs ~techs:Tech.all ~jobs ()));
    List.map
      (fun name ->
        match Metrics.find name with
        | Some (Metrics.Counter n) -> n
        | _ -> Alcotest.failf "%s not recorded" name)
      [ "fixpoint_iterations_total"; "fixpoint_transfers_total" ]
  in
  let one = counters 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int)) (Printf.sprintf "jobs %d matches jobs 1" jobs) one
        (counters jobs))
    [ 2; 3 ]

(* ------------------------------------------------------------------ *)
(* robustness: per-case isolation, deadlines, fault injection,
   checkpoint/resume *)

module Outcome = Ucp_core.Outcome
module Fault = Ucp_core.Fault
module Checkpoint = Ucp_core.Checkpoint
module Deadline = Ucp_util.Deadline

let with_env name value f =
  let old = Sys.getenv_opt name in
  Unix.putenv name value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv name (Option.value old ~default:""))
    f

let test_default_jobs_env () =
  with_env "UCP_JOBS" "3" (fun () ->
      Alcotest.(check int) "UCP_JOBS=3" 3 (Parallel.default_jobs ()));
  with_env "UCP_JOBS" " 5 " (fun () ->
      Alcotest.(check int) "whitespace trimmed" 5 (Parallel.default_jobs ()));
  with_env "UCP_JOBS" "" (fun () ->
      Alcotest.(check bool) "empty falls back to default" true
        (Parallel.default_jobs () >= 1));
  List.iter
    (fun bad ->
      with_env "UCP_JOBS" bad (fun () ->
          Alcotest.(check bool)
            (Printf.sprintf "UCP_JOBS=%s rejected" bad)
            true
            (try
               ignore (Parallel.default_jobs ());
               false
             with Invalid_argument _ -> true)))
    [ "abc"; "0"; "-2"; "1.5" ]

let test_try_map_outcomes () =
  let out =
    Parallel.try_map ~jobs:2
      (fun i ->
        if i = 1 then failwith "kaboom"
        else if i = 2 then raise Deadline.Deadline_exceeded
        else if i = 3 then raise (Outcome.Invariant "tau grew")
        else i * 10)
      (Array.init 5 Fun.id)
  in
  Alcotest.(check int) "all elements accounted for" 5 (Array.length out);
  (match out.(0) with
  | Outcome.Ok 0 -> ()
  | _ -> Alcotest.fail "element 0 should be Ok 0");
  (match out.(1) with
  | Outcome.Failed { exn_text; _ } ->
    Alcotest.(check bool) "exception text preserved" true
      (String.length exn_text > 0
      && Ucp_testlib.contains ~substring:"kaboom" exn_text)
  | _ -> Alcotest.fail "element 1 should be Failed");
  (match out.(2) with
  | Outcome.Timed_out -> ()
  | _ -> Alcotest.fail "element 2 should be Timed_out");
  (match out.(3) with
  | Outcome.Invariant_violation "tau grew" -> ()
  | _ -> Alcotest.fail "element 3 should be Invariant_violation");
  match out.(4) with
  | Outcome.Ok 40 -> ()
  | _ -> Alcotest.fail "element 4 should be Ok 40"

let test_try_map_empty () =
  Alcotest.(check int) "empty input" 0
    (Array.length (Parallel.try_map ~jobs:2 (fun i -> i) [||]))

let test_map_progress_exception_contained () =
  (* a raising progress callback must not void the computed results *)
  let calls = ref 0 in
  let out =
    Parallel.map ~jobs:2
      ~progress:(fun ~done_:_ ~total:_ ->
        incr calls;
        failwith "progress boom")
      (fun i -> i + 1)
      (Array.init 12 (fun i -> i))
  in
  Alcotest.(check (array int)) "results intact"
    (Array.init 12 (fun i -> i + 1))
    out;
  Alcotest.(check int) "callback disabled after first raise" 1 !calls

(* a deliberately tiny grid so the fault-injection sweeps stay fast *)
let tiny_grid () =
  let programs =
    [ ("fft1", Ucp_workloads.Suite.find "fft1"); ("crc", Ucp_workloads.Suite.find "crc") ]
  in
  let configs = [ ("a", Config.make ~assoc:2 ~block_bytes:16 ~capacity:256) ] in
  let techs = [ Tech.nm45 ] in
  (programs, configs, techs)

let with_faults faults f =
  List.iter (fun (id, mode) -> Fault.set id mode) faults;
  Fun.protect ~finally:Fault.clear f

let test_sweep_isolates_crashed_case () =
  let programs, configs, techs = tiny_grid () in
  with_faults
    [ ("fft1:a:45nm:lru", Fault.Raise) ]
    (fun () ->
      let s = Parallel.sweep ~programs ~configs ~techs ~jobs:2 () in
      Alcotest.(check int) "grid size" 2 s.Parallel.cases;
      Alcotest.(check int) "one record survives" 1 (List.length s.Parallel.records);
      Alcotest.(check int) "one failure" 1 (List.length s.Parallel.failures);
      (match s.Parallel.results with
      | [ ("fft1:a:45nm:lru", Outcome.Failed { exn_text; backtrace = _ }); ("crc:a:45nm:lru", Outcome.Ok r) ]
        ->
        Alcotest.(check bool) "injected exception text" true
          (Ucp_testlib.contains ~substring:"fft1:a:45nm:lru" exn_text);
        Alcotest.(check string) "surviving record is crc" "crc"
          r.Experiments.program_name
      | _ -> Alcotest.fail "expected [fft1 Failed; crc Ok] in input order"))

let test_sweep_times_out_stalled_case () =
  let programs, configs, techs = tiny_grid () in
  with_faults
    [ ("crc:a:45nm:lru", Fault.Stall 30.0) ]
    (fun () ->
      let t0 = Unix.gettimeofday () in
      let s = Parallel.sweep ~programs ~configs ~techs ~jobs:2 ~timeout:0.3 () in
      Alcotest.(check bool) "stall cut short by the deadline" true
        (Unix.gettimeofday () -. t0 < 10.0);
      match s.Parallel.results with
      | [ (_, Outcome.Ok _); ("crc:a:45nm:lru", Outcome.Timed_out) ] -> ()
      | _ -> Alcotest.fail "expected [fft1 Ok; crc Timed_out]")

let test_sweep_demotes_invariant_violation () =
  let programs, configs, techs = tiny_grid () in
  with_faults
    [ ("fft1:a:45nm:lru", Fault.Corrupt_tau 1_000_000) ]
    (fun () ->
      let s = Parallel.sweep ~programs ~configs ~techs ~jobs:2 () in
      match s.Parallel.results with
      | [ ("fft1:a:45nm:lru", Outcome.Invariant_violation msg); (_, Outcome.Ok _) ] ->
        Alcotest.(check bool) "names Theorem 1" true
          (Ucp_testlib.contains ~substring:"Theorem 1" msg);
        Alcotest.(check int) "corrupt record not reported" 1
          (List.length s.Parallel.records)
      | _ -> Alcotest.fail "expected [fft1 Invariant_violation; crc Ok]")

(* certification audit threaded through the sweep: every record of an
   audited run carries a verdict, un-audited runs stay Not_audited *)
let test_sweep_audit_full () =
  let programs, configs, techs = tiny_grid () in
  let s =
    Parallel.sweep ~programs ~configs ~techs ~jobs:2 ~audit:Ucp_verify.Full ()
  in
  Alcotest.(check int) "audited grid is clean" 2 (List.length s.Parallel.records);
  List.iter
    (fun r ->
      match r.Experiments.audit with
      | Pipeline.Audited { checks; seconds } ->
        (* 5 base obligations + 2 refine obligations (sweeps refine by
           default) *)
        Alcotest.(check int) "seven obligations per case" 7 checks;
        Alcotest.(check bool) "non-negative audit cost" true (seconds >= 0.0)
      | Pipeline.Audit_skipped reason ->
        Alcotest.failf "plain case skipped: %s" reason
      | Pipeline.Not_audited -> Alcotest.fail "audited sweep left a record unaudited")
    s.Parallel.records;
  let s0 = Parallel.sweep ~programs ~configs ~techs ~jobs:2 () in
  List.iter
    (fun r ->
      Alcotest.(check bool) "default sweep is not audited" true
        (r.Experiments.audit = Pipeline.Not_audited))
    s0.Parallel.records

(* a corrupt-cert fault must be caught by the audit and demoted to an
   invariant violation naming the failed obligation *)
let test_sweep_audit_demotes_corrupt_cert () =
  let programs, configs, techs = tiny_grid () in
  with_faults
    [ ("fft1:a:45nm:lru", Fault.Corrupt_cert) ]
    (fun () ->
      let s =
        Parallel.sweep ~programs ~configs ~techs ~jobs:2
          ~audit:Ucp_verify.Full ()
      in
      match s.Parallel.results with
      | [ ("fft1:a:45nm:lru", Outcome.Invariant_violation msg); (_, Outcome.Ok _) ] ->
        Alcotest.(check bool) "names the audit obligation" true
          (Ucp_testlib.contains ~substring:"audit: optimizer-tau-after" msg);
        Alcotest.(check int) "corrupt record not reported" 1
          (List.length s.Parallel.records)
      | _ -> Alcotest.fail "expected [fft1 Invariant_violation; crc Ok]")

(* a corrupt-cert fault without the audit passes silently: the fault
   only perturbs the certificate, not the measurements *)
let test_sweep_corrupt_cert_needs_audit () =
  let programs, configs, techs = tiny_grid () in
  with_faults
    [ ("fft1:a:45nm:lru", Fault.Corrupt_cert) ]
    (fun () ->
      let s = Parallel.sweep ~programs ~configs ~techs ~jobs:2 () in
      Alcotest.(check int) "un-audited sweep misses the corruption" 2
        (List.length s.Parallel.records))

(* worker-death handling: a task whose exception escapes per-task
   isolation (a Fault.Killed_worker) kills its domain; the pool must
   never hang on it — it either fails wait with a structured error or
   (under ~respawn) replaces the domain and carries on *)
let test_pool_worker_death_fails_wait () =
  let pool = Parallel.create ~jobs:2 () in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown pool)
    (fun () ->
      Parallel.submit pool (fun () -> raise (Fault.Killed_worker "boom"));
      Alcotest.(check bool) "wait raises Worker_died instead of hanging" true
        (try
           Parallel.wait pool;
           false
         with Parallel.Worker_died _ -> true))

let test_pool_respawn_replaces_dead_worker () =
  let pool = Parallel.create ~respawn:true ~jobs:1 () in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown pool)
    (fun () ->
      let hit = Atomic.make 0 in
      Parallel.submit pool (fun () -> raise (Fault.Killed_worker "boom"));
      Parallel.submit pool (fun () -> Atomic.incr hit);
      (* the queued task outlives the killed domain: the replacement
         runs it and wait returns normally *)
      Parallel.wait pool;
      Alcotest.(check int) "replacement ran the queued task" 1 (Atomic.get hit);
      Alcotest.(check int) "one restart recorded" 1 (Parallel.restarts pool))

let test_sweep_survives_killed_worker () =
  let programs, configs, techs = tiny_grid () in
  with_faults
    [ ("fft1:a:45nm:lru", Fault.Kill_worker) ]
    (fun () ->
      let s = Parallel.sweep ~programs ~configs ~techs ~jobs:2 () in
      Alcotest.(check int) "one worker replaced" 1 s.Parallel.worker_restarts;
      match s.Parallel.results with
      | [ ("fft1:a:45nm:lru", Outcome.Failed { exn_text; _ }); (_, Outcome.Ok r) ] ->
        Alcotest.(check bool) "lost case is structured, not an assert" true
          (Ucp_testlib.contains ~substring:"worker domain died" exn_text);
        Alcotest.(check string) "other case unaffected" "crc"
          r.Experiments.program_name
      | _ -> Alcotest.fail "expected [fft1 Failed (lost with its domain); crc Ok]")

(* durability: an acknowledged journal append (and every write_atomic)
   must reach fsync, not just the kernel page cache *)
let test_checkpoint_writes_are_fsynced () =
  let programs, configs, techs = tiny_grid () in
  let path = Filename.temp_file "ucp_sync" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let fingerprint = Checkpoint.fingerprint ~programs ~configs ~techs () in
      let before = Checkpoint.synced_writes () in
      let j = Checkpoint.start ~path ~fingerprint ~resume:false in
      Fun.protect
        ~finally:(fun () -> Checkpoint.close j)
        (fun () ->
          Alcotest.(check bool) "header is synced" true
            (Checkpoint.synced_writes () > before);
          let r =
            match Experiments.sweep ~programs ~configs ~techs () with
            | r :: _ -> r
            | [] -> Alcotest.fail "tiny grid produced no record"
          in
          let mid = Checkpoint.synced_writes () in
          Checkpoint.record j ~id:"fft1:a:45nm:lru" r;
          Alcotest.(check bool) "record syncs before returning" true
            (Checkpoint.synced_writes () > mid));
      let before_wa = Checkpoint.synced_writes () in
      Checkpoint.write_atomic ~path "replacement contents\n";
      Alcotest.(check bool) "write_atomic syncs before rename" true
        (Checkpoint.synced_writes () > before_wa))

let test_sweep_rejects_bad_timeout () =
  Alcotest.(check bool) "timeout 0 rejected" true
    (try
       ignore (Parallel.sweep ~timeout:0.0 ());
       false
     with Invalid_argument _ -> true)

let test_fault_env_parsing () =
  with_env "UCP_FAULT" "x=raise, y=stall:0.5 ,z=corrupt:42" (fun () ->
      Fun.protect ~finally:Fault.clear (fun () ->
          Fault.load_env ();
          (match Fault.find "x" with
          | Some Fault.Raise -> ()
          | _ -> Alcotest.fail "x should be Raise");
          (match Fault.find "y" with
          | Some (Fault.Stall s) -> Alcotest.(check (float 1e-9)) "stall secs" 0.5 s
          | _ -> Alcotest.fail "y should be Stall");
          (match Fault.find "z" with
          | Some (Fault.Corrupt_tau 42) -> ()
          | _ -> Alcotest.fail "z should be Corrupt_tau 42")));
  with_env "UCP_FAULT" "w=corrupt-cert" (fun () ->
      Fun.protect ~finally:Fault.clear (fun () ->
          Fault.load_env ();
          (match Fault.find "w" with
          | Some Fault.Corrupt_cert -> ()
          | _ -> Alcotest.fail "w should be Corrupt_cert");
          Alcotest.(check bool) "corrupt_cert fires for w" true
            (Fault.corrupt_cert "w");
          Alcotest.(check bool) "corrupt_cert quiet elsewhere" false
            (Fault.corrupt_cert "v")));
  List.iter
    (fun bad ->
      with_env "UCP_FAULT" bad (fun () ->
          Fun.protect ~finally:Fault.clear (fun () ->
              Alcotest.(check bool)
                (Printf.sprintf "UCP_FAULT=%s rejected" bad)
                true
                (try
                   Fault.load_env ();
                   false
                 with Invalid_argument _ -> true))))
    [ "noequals"; "=raise"; "x=explode"; "x=stall:fast" ]

let test_checkpoint_record_roundtrip () =
  let programs, configs, techs = tiny_grid () in
  let s = Parallel.sweep ~programs ~configs ~techs ~jobs:1 () in
  List.iter
    (fun (id, o) ->
      match o with
      | Outcome.Ok r -> (
        let line = Checkpoint.record_line ~id r in
        match Checkpoint.parse_line line with
        | Some (id', r') ->
          Alcotest.(check string) "id round-trips" id id';
          Alcotest.(check bool) "record round-trips bit for bit" true (r = r')
        | None -> Alcotest.fail "record_line should parse back")
      | _ -> Alcotest.fail "tiny grid should be fault-free")
    s.Parallel.results;
  (* audited records round-trip with their verdict; a journal written
     before the audit fields existed still parses (as Not_audited) *)
  let sa =
    Parallel.sweep ~programs ~configs ~techs ~jobs:1 ~audit:Ucp_verify.Full ()
  in
  List.iter
    (fun (id, o) ->
      match o with
      | Outcome.Ok r -> (
        Alcotest.(check bool) "audited sweep record carries a verdict" true
          (r.Experiments.audit <> Pipeline.Not_audited);
        match Checkpoint.parse_line (Checkpoint.record_line ~id r) with
        | Some (_, r') ->
          Alcotest.(check bool) "audited record round-trips bit for bit" true
            (r = r')
        | None -> Alcotest.fail "audited record_line should parse back")
      | _ -> Alcotest.fail "audited tiny grid should be fault-free")
    sa.Parallel.results;
  Alcotest.(check bool) "malformed line rejected" true
    (Checkpoint.parse_line "{\"case\":\"tr" = None)

(* The journal codec is a fixpoint on hard values: 17-significant-digit
   and subnormal floats, an escaped program name, both refine summary
   shapes and an audit verdict survive record_line -> parse_line ->
   record_line byte for byte; every truncation of a line and assorted
   garbage decode to [None]. *)
let test_checkpoint_line_fixpoint () =
  let programs, configs, techs = tiny_grid () in
  let s = Parallel.sweep ~programs ~configs ~techs ~jobs:1 () in
  let id, base =
    match s.Parallel.results with
    | (id, Outcome.Ok r) :: _ -> (id, r)
    | _ -> Alcotest.fail "tiny grid should be fault-free"
  in
  let summary quant =
    {
      Ucp_refine.Explore.s_mode = Ucp_refine.Mode.Nc;
      s_nc_before = 9;
      s_nc_after = 4;
      s_ah_gained = 3;
      s_am_gained = 2;
      s_tau = 123_456_789;
      s_miss_bound = 77;
      s_quant = quant;
      s_states = 4096;
      s_budget_hit = true;
      s_budget_exhausted = 1;
      s_digest = "d\"q\\";
    }
  in
  let r =
    {
      base with
      Experiments.program_name = "we\"ird\\na\tme\001\n";
      original =
        {
          base.Experiments.original with
          Pipeline.energy_pj = 0.1 +. 0.2;
          miss_rate = 4.9e-324;
          refine = Some (summary (Some 12));
        };
      optimized =
        {
          base.Experiments.optimized with
          Pipeline.energy_pj = 2.2250738585072009e-308;
          miss_rate = 1.0 /. 3.0;
          refine = Some (summary None);
        };
      audit = Pipeline.Audited { checks = 5; seconds = 123456.78901234567 };
    }
  in
  let line = Checkpoint.record_line ~id r in
  (match Checkpoint.parse_line line with
  | Some (id', r') ->
    Alcotest.(check string) "id round-trips" id id';
    Alcotest.(check string) "line is a fixpoint" line (Checkpoint.record_line ~id:id' r');
    Alcotest.(check bool) "subnormal survives" true
      (r'.Experiments.original.Pipeline.miss_rate = 4.9e-324)
  | None -> Alcotest.fail "hard record_line should parse back");
  for len = 0 to String.length line - 1 do
    if Checkpoint.parse_line (String.sub line 0 len) <> None then
      Alcotest.failf "truncation to %d bytes decoded" len
  done;
  (* well-formed JSON with an ill-typed field: the first "tau" number
     replaced by a string *)
  let tau_as_string =
    let key = {|"tau":|} in
    let rec find i = if String.sub line i (String.length key) = key then i else find (i + 1) in
    let i = find 0 + String.length key in
    let rec skip j = match line.[j] with '0' .. '9' | '-' -> skip (j + 1) | _ -> j in
    let j = skip i in
    String.sub line 0 i ^ {|"x"|} ^ String.sub line j (String.length line - j)
  in
  List.iter
    (fun garbage ->
      Alcotest.(check bool) (Printf.sprintf "garbage %S rejected" garbage) true
        (Checkpoint.parse_line garbage = None))
    [ ""; "garbage"; "{}"; "[1,2]"; "null"; line ^ "x"; line ^ line; tau_as_string ]

let test_sweep_checkpoint_resume () =
  let programs, configs, techs =
    let programs, _, techs = tiny_grid () in
    ( programs,
      [
        ("a", Config.make ~assoc:2 ~block_bytes:16 ~capacity:256);
        ("b", Config.make ~assoc:2 ~block_bytes:16 ~capacity:512);
      ],
      techs )
  in
  let path = Filename.temp_file "ucp_ckpt" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* reference: an uninterrupted run *)
      let full = Parallel.sweep ~programs ~configs ~techs ~jobs:1 () in
      (* a complete checkpointed run, then simulate a crash by keeping
         only the header, the first two record lines and a torn final
         line *)
      let s0 =
        Parallel.sweep ~programs ~configs ~techs ~jobs:1 ~checkpoint:path ()
      in
      Alcotest.(check int) "checkpointed run is clean" 0
        (List.length s0.Parallel.failures);
      let lines =
        String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all)
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check int) "header + one line per case" 5 (List.length lines);
      let journaled =
        match lines with
        | header :: r1 :: r2 :: _ ->
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc
                (String.concat "\n" [ header; r1; r2; {|{"case":"tr|} ]));
          List.filter_map Checkpoint.parse_line [ r1; r2 ] |> List.map fst
        | _ -> Alcotest.fail "journal too short"
      in
      Alcotest.(check int) "two journaled cases" 2 (List.length journaled);
      (* prove the journaled cases are skipped, not re-run: rig them to
         crash if executed *)
      with_faults
        (List.map (fun id -> (id, Fault.Raise)) journaled)
        (fun () ->
          let s1 =
            Parallel.sweep ~programs ~configs ~techs ~jobs:1 ~checkpoint:path
              ~resume:true ()
          in
          Alcotest.(check int) "two cases replayed" 2 s1.Parallel.resumed;
          Alcotest.(check int) "no failures on resume" 0
            (List.length s1.Parallel.failures);
          Alcotest.(check bool) "resumed records identical to uninterrupted run"
            true
            (s1.Parallel.records = full.Parallel.records)))

let test_sweep_checkpoint_fingerprint_mismatch () =
  let programs, configs, techs = tiny_grid () in
  let path = Filename.temp_file "ucp_ckpt" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore (Parallel.sweep ~programs ~configs ~techs ~jobs:1 ~checkpoint:path ());
      let other_configs =
        [ ("a", Config.make ~assoc:4 ~block_bytes:32 ~capacity:1024) ]
      in
      Alcotest.(check bool) "mismatched grid rejected" true
        (try
           ignore
             (Parallel.sweep ~programs ~configs:other_configs ~techs ~jobs:1
                ~checkpoint:path ~resume:true ());
           false
         with Failure msg -> Ucp_testlib.contains ~substring:"fingerprint" msg))

(* the policy axis in the journal: case ids carry the policy suffix,
   records round-trip with their policy, and an LRU-only journal cannot
   seed a multi-policy grid *)
let test_checkpoint_policy_roundtrip () =
  let programs, configs, techs = tiny_grid () in
  let s =
    Parallel.sweep ~programs ~configs ~techs ~policies:[ Ucp_policy.Fifo ]
      ~jobs:1 ()
  in
  Alcotest.(check int) "fifo grid evaluated" 2 (List.length s.Parallel.records);
  List.iter
    (fun (id, o) ->
      match o with
      | Outcome.Ok r -> (
        Alcotest.(check bool) "id carries the policy suffix" true
          (Ucp_testlib.contains ~substring:":fifo" id);
        match Checkpoint.parse_line (Checkpoint.record_line ~id r) with
        | Some (id', r') ->
          Alcotest.(check string) "id round-trips" id id';
          Alcotest.(check bool) "policy survives the journal" true
            (r'.Experiments.policy = Ucp_policy.Fifo);
          Alcotest.(check bool) "record round-trips bit for bit" true (r = r')
        | None -> Alcotest.fail "record_line should parse back")
      | _ -> Alcotest.fail "fifo grid should be fault-free")
    s.Parallel.results

let test_checkpoint_policy_fingerprint_mismatch () =
  let programs, configs, techs = tiny_grid () in
  let path = Filename.temp_file "ucp_ckpt" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* an LRU-only journal from a completed default sweep ... *)
      ignore (Parallel.sweep ~programs ~configs ~techs ~jobs:1 ~checkpoint:path ());
      (* ... must be rejected when resuming a multi-policy grid *)
      Alcotest.(check bool) "LRU journal rejected for multi-policy grid" true
        (try
           ignore
             (Parallel.sweep ~programs ~configs ~techs
                ~policies:[ Ucp_policy.Lru; Ucp_policy.Fifo; Ucp_policy.Plru ]
                ~jobs:1 ~checkpoint:path ~resume:true ());
           false
         with Failure msg -> Ucp_testlib.contains ~substring:"fingerprint" msg))

(* a killed worker loses only the unfinished cases of its own work
   item: on a single-tech, single-policy grid every item is one case *)
let test_sweep_killed_worker_loses_one_case () =
  let programs, _, techs = tiny_grid () in
  let configs = List.filteri (fun i _ -> i < 8) Config.paper_configs in
  with_faults
    [ ("fft1:k1:45nm:lru", Fault.Kill_worker) ]
    (fun () ->
      let s = Parallel.sweep ~programs ~configs ~techs ~jobs:2 () in
      Alcotest.(check int) "grid size" 16 s.Parallel.cases;
      Alcotest.(check int) "one worker replaced" 1 s.Parallel.worker_restarts;
      Alcotest.(check (list string)) "exactly the killed case is lost"
        [ "fft1:k1:45nm:lru" ]
        (List.map fst s.Parallel.failures);
      Alcotest.(check int) "every other case survives" 15
        (List.length s.Parallel.records))

(* the sweep's progress path: serialized, strictly increasing, counting
   resumed cases, and a raising callback leaves the records intact *)
let test_sweep_progress () =
  let programs, _, techs = tiny_grid () in
  let configs =
    [
      ("a", Config.make ~assoc:2 ~block_bytes:16 ~capacity:256);
      ("b", Config.make ~assoc:2 ~block_bytes:16 ~capacity:512);
    ]
  in
  let watch () =
    let seen = ref [] in
    let cb ~done_ ~total =
      Alcotest.(check int) "total is the grid size" 4 total;
      seen := done_ :: !seen
    in
    (cb, fun () -> List.rev !seen)
  in
  let path = Filename.temp_file "ucp_progress" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let progress, seen = watch () in
      let s0 =
        Parallel.sweep ~programs ~configs ~techs ~jobs:2 ~checkpoint:path
          ~progress ()
      in
      Alcotest.(check (list int)) "one call per case, strictly increasing"
        [ 1; 2; 3; 4 ] (seen ());
      (* keep the header and two journaled cases, then resume *)
      (match
         String.split_on_char '\n'
           (In_channel.with_open_text path In_channel.input_all)
       with
      | header :: r1 :: r2 :: _ ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (String.concat "\n" [ header; r1; r2; "" ]))
      | _ -> Alcotest.fail "journal too short");
      let progress, seen = watch () in
      let s1 =
        Parallel.sweep ~programs ~configs ~techs ~jobs:2 ~checkpoint:path
          ~resume:true ~progress ()
      in
      Alcotest.(check int) "two cases replayed" 2 s1.Parallel.resumed;
      Alcotest.(check (list int)) "resumed cases counted" [ 3; 4 ] (seen ());
      let calls = ref 0 in
      let s2 =
        Parallel.sweep ~programs ~configs ~techs ~jobs:2
          ~progress:(fun ~done_:_ ~total:_ ->
            incr calls;
            failwith "progress boom")
          ()
      in
      Alcotest.(check int) "callback disabled after first raise" 1 !calls;
      Alcotest.(check bool) "records intact" true
        (s2.Parallel.records = s0.Parallel.records))

let test_experiments_ratio_degenerate () =
  Alcotest.(check bool) "zero denominator is None" true
    (Experiments.ratio 5 0 = None);
  Alcotest.(check bool) "defined ratio" true (Experiments.ratio 1 2 = Some 0.5);
  Alcotest.(check bool) "zero float denominator is None" true
    (Experiments.fratio 5.0 0.0 = None);
  Alcotest.(check bool) "defined float ratio" true
    (Experiments.fratio 1.0 4.0 = Some 0.25)

(* ------------------------------------------------------------------ *)
(* perf-regression gate *)

module Bench_gate = Ucp_core.Bench_gate

let gate_json s =
  match Ucp_util.Json.parse s with
  | Ok j -> j
  | Error msg -> Alcotest.failf "gate fixture does not parse: %s" msg

let test_bench_gate_band () =
  let baseline =
    gate_json
      {|{"wall_s":1.0,"cases":10,"tiers":[{"p99_s":0.1,"count":5},{"p99_s":0.2,"count":7}]}|}
  in
  (* identical numbers pass *)
  let o = Bench_gate.compare_json ~baseline ~current:baseline () in
  Alcotest.(check bool) "identical passes" true o.Bench_gate.passed;
  Alcotest.(check int) "three gated leaves" 3 o.Bench_gate.gated;
  (* just inside the band: cur = base*factor + slack *)
  let inside =
    gate_json
      {|{"wall_s":3.25,"cases":99,"tiers":[{"p99_s":0.55,"count":0},{"p99_s":0.85,"count":0}]}|}
  in
  let o = Bench_gate.compare_json ~baseline ~current:inside () in
  Alcotest.(check bool) "band edge passes (counts not gated)" true
    o.Bench_gate.passed;
  (* one leaf past the band fails, and the verdict names it *)
  let regressed =
    gate_json
      {|{"wall_s":1.0,"cases":10,"tiers":[{"p99_s":0.1,"count":5},{"p99_s":5.0,"count":7}]}|}
  in
  let o = Bench_gate.compare_json ~baseline ~current:regressed () in
  Alcotest.(check bool) "regression fails" false o.Bench_gate.passed;
  (match
     List.find_opt (fun v -> not v.Bench_gate.v_ok) o.Bench_gate.verdicts
   with
  | Some v ->
    Alcotest.(check string) "regressed path" "tiers[1].p99_s" v.Bench_gate.v_path
  | None -> Alcotest.fail "no failing verdict reported");
  (* a tighter factor flags what the default band tolerates *)
  let drifted = gate_json {|{"wall_s":2.0}|} in
  let loose =
    Bench_gate.compare_json ~baseline:(gate_json {|{"wall_s":1.0}|})
      ~current:drifted ()
  in
  Alcotest.(check bool) "2x inside default band" true loose.Bench_gate.passed;
  let tight =
    Bench_gate.compare_json ~factor:1.1 ~slack:0.0
      ~baseline:(gate_json {|{"wall_s":1.0}|})
      ~current:drifted ()
  in
  Alcotest.(check bool) "2x outside factor 1.1" false tight.Bench_gate.passed

let test_bench_gate_structure () =
  (* additive fields on either side are skipped, not regressions; and a
     document with no time-like leaves gates nothing *)
  let o =
    Bench_gate.compare_json
      ~baseline:(gate_json {|{"wall_s":1.0,"old_s":9.9}|})
      ~current:(gate_json {|{"wall_s":1.0,"new_s":9.9}|})
      ()
  in
  Alcotest.(check int) "only the common leaf gated" 1 o.Bench_gate.gated;
  Alcotest.(check bool) "passes" true o.Bench_gate.passed;
  let o =
    Bench_gate.compare_json
      ~baseline:(gate_json {|{"cases":10,"name":"x"}|})
      ~current:(gate_json {|{"cases":99,"name":"y"}|})
      ()
  in
  Alcotest.(check int) "nothing time-like" 0 o.Bench_gate.gated;
  Alcotest.(check bool) "vacuously passes" true o.Bench_gate.passed;
  (* ratio is gated by name even without the _s suffix *)
  let o =
    Bench_gate.compare_json
      ~baseline:(gate_json {|{"ratio":1.0}|})
      ~current:(gate_json {|{"ratio":10.0}|})
      ()
  in
  Alcotest.(check bool) "ratio regression caught" false o.Bench_gate.passed;
  Alcotest.check_raises "bad factor rejected"
    (Invalid_argument "Bench_gate: factor must be a positive number") (fun () ->
      ignore
        (Bench_gate.compare_json ~factor:0.0
           ~baseline:(gate_json {|{}|})
           ~current:(gate_json {|{}|})
           ()))

let () =
  Alcotest.run "ucp_core"
    [
      ( "pipeline",
        [
          Alcotest.test_case "measure consistency" `Quick test_measure_consistency;
          Alcotest.test_case "measure deterministic" `Quick test_measure_deterministic;
          Alcotest.test_case "compare guarantee" `Quick test_compare_optimized_guarantee;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "sweep cardinality" `Quick test_sweep_cardinality;
          Alcotest.test_case "figure 3" `Quick test_figure3_rows;
          Alcotest.test_case "figure 4" `Quick test_figure4_rows;
          Alcotest.test_case "figure 5" `Quick test_figure5_join;
          Alcotest.test_case "figure 7" `Quick test_figure7_theorem1;
          Alcotest.test_case "figure 8" `Quick test_figure8_rows;
          Alcotest.test_case "tables" `Quick test_tables;
          Alcotest.test_case "quick configs" `Quick test_quick_configs_subset;
        ] );
      ("report", [ Alcotest.test_case "rendering" `Quick test_report_rendering ]);
      ( "parallel",
        [
          Alcotest.test_case "map preserves order" `Quick test_parallel_map_order;
          Alcotest.test_case "map empty" `Quick test_parallel_map_empty;
          Alcotest.test_case "map propagates exceptions" `Quick test_parallel_map_exception;
          Alcotest.test_case "map progress" `Quick test_parallel_map_progress;
          Alcotest.test_case "pool rejects jobs<1" `Quick test_pool_rejects_bad_jobs;
          Alcotest.test_case "sweep deterministic (jobs 4)" `Quick
            test_parallel_sweep_deterministic;
          Alcotest.test_case "sweep degenerate pool (jobs 1)" `Quick
            test_parallel_sweep_single_worker;
          Alcotest.test_case "sweep counters independent of jobs" `Quick
            test_parallel_sweep_counters_jobs_invariant;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "UCP_JOBS parsing" `Quick test_default_jobs_env;
          Alcotest.test_case "try_map outcomes" `Quick test_try_map_outcomes;
          Alcotest.test_case "try_map empty" `Quick test_try_map_empty;
          Alcotest.test_case "progress exception contained" `Quick
            test_map_progress_exception_contained;
          Alcotest.test_case "sweep isolates crashed case" `Quick
            test_sweep_isolates_crashed_case;
          Alcotest.test_case "sweep times out stalled case" `Quick
            test_sweep_times_out_stalled_case;
          Alcotest.test_case "sweep demotes invariant violation" `Quick
            test_sweep_demotes_invariant_violation;
          Alcotest.test_case "sweep audit certifies every record" `Quick
            test_sweep_audit_full;
          Alcotest.test_case "sweep audit demotes corrupt certificate" `Quick
            test_sweep_audit_demotes_corrupt_cert;
          Alcotest.test_case "corrupt certificate needs the audit" `Quick
            test_sweep_corrupt_cert_needs_audit;
          Alcotest.test_case "worker death fails wait" `Quick
            test_pool_worker_death_fails_wait;
          Alcotest.test_case "respawn replaces dead worker" `Quick
            test_pool_respawn_replaces_dead_worker;
          Alcotest.test_case "sweep survives killed worker" `Quick
            test_sweep_survives_killed_worker;
          Alcotest.test_case "checkpoint writes are fsynced" `Quick
            test_checkpoint_writes_are_fsynced;
          Alcotest.test_case "sweep rejects bad timeout" `Quick
            test_sweep_rejects_bad_timeout;
          Alcotest.test_case "UCP_FAULT parsing" `Quick test_fault_env_parsing;
          Alcotest.test_case "checkpoint line round-trip" `Quick
            test_checkpoint_record_roundtrip;
          Alcotest.test_case "checkpoint line fixpoint on hard values" `Quick
            test_checkpoint_line_fixpoint;
          Alcotest.test_case "checkpoint resume skips journaled cases" `Quick
            test_sweep_checkpoint_resume;
          Alcotest.test_case "checkpoint fingerprint mismatch" `Quick
            test_sweep_checkpoint_fingerprint_mismatch;
          Alcotest.test_case "checkpoint policy round-trip" `Quick
            test_checkpoint_policy_roundtrip;
          Alcotest.test_case "checkpoint rejects LRU journal for multi-policy grid"
            `Quick test_checkpoint_policy_fingerprint_mismatch;
          Alcotest.test_case "degenerate ratios" `Quick
            test_experiments_ratio_degenerate;
          Alcotest.test_case "killed worker loses only its case" `Quick
            test_sweep_killed_worker_loses_one_case;
          Alcotest.test_case "sweep progress" `Quick test_sweep_progress;
        ] );
      ( "bench-gate",
        [
          Alcotest.test_case "tolerance band" `Quick test_bench_gate_band;
          Alcotest.test_case "structural walk" `Quick test_bench_gate_structure;
        ] );
    ]
