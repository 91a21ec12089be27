(* The repository's benchmark: one command, three workloads.

     bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1

   run.sh builds this executable and bin/ucp.exe (release profile) and
   runs one workload; the last stdout line is the JSON result.

   - sweep-lru: the 37 Table-1 programs x k2,k14,k29 (one configuration
     per capacity band) x both technologies under LRU, [--refine nc],
     no audit, no journal: the paper's grid, dominated by the optimizer
     and LRU refinement, with a heavy per-case tail (nsichneu:k2).
   - sweep-policies-audited: the 31 small/medium programs x two
     configurations per band x both technologies x {fifo, plru},
     [--refine nc], [--audit full] and a checkpoint journal: product-BFS
     refinement, audit, journal and codec; no LRU case, no tail.
   - serve-zipf: a child [ucp serve --jobs 1] daemon on a fresh store,
     driven over [nproc] persistent connections with Zipf-distributed
     case ids, open loop at a light nominal rate and closed loop at
     saturation; set-up warms half of the universe into the store.

   The sweep grids are fixed and the seed does not change them.  A
   seeded configuration draw swings the LRU grid's cost by up to 10x
   (loop3 runs 17 s at k3 and 0.15 s at k5), and even a seeded order of
   the grid moves the pool's scheduling tail by +-30% between seeds, so
   neither would let two seeds be compared.  For serve the seed draws
   the warm half and the request stream.

   Sweeps call [Ucp_core.Parallel.sweep] exactly as [ucp experiment]
   does; the printed [ucp experiment] line reproduces the grid, and its
   [--sweep-out] record lines hash to the digest pinned in pinned.ml.
   With [--trace 1] the sweep runs once more outside [Parallel.sweep]:
   each case calls the public functions in the order [Pipeline.prepare]
   uses them, inside spans recorded here, and the rendered record must
   equal the untraced sweep's byte for byte.  Nothing here reads
   [Pipeline.timings] or [Ucp_obs] spans.

   Exit codes: 0 all checks passed; 1 a correctness check failed (the
   result line is still printed); 2 bad arguments or a failed build. *)

module Config = Ucp_cache.Config
module Tech = Ucp_energy.Tech
module Experiments = Ucp_core.Experiments
module Parallel = Ucp_core.Parallel
module Pipeline = Ucp_core.Pipeline
module Report = Ucp_core.Report
module Checkpoint = Ucp_core.Checkpoint
module Wcet = Ucp_wcet.Wcet
module Analysis = Ucp_wcet.Analysis
module Optimizer = Ucp_prefetch.Optimizer
module Explore = Ucp_refine.Explore
module Simulator = Ucp_sim.Simulator
module Protocol = Ucp_serve.Protocol
module Store = Ucp_serve.Store
module Suite = Ucp_workloads.Suite
module Json = Ucp_util.Json
module B = Perfbench

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* command line *)

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  ucp : string;  (* the ucp executable the serve workload spawns *)
  out : string;  (* scratch directory for stores, journals and traces *)
}

let parse_args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | a :: _ -> die "unexpected argument %S" a
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> die "missing --%s" k in
  let int k =
    match int_of_string_opt (get k) with Some n -> n | None -> die "--%s: expected an integer" k
  in
  let a =
    {
      workload = get "workload";
      seed = int "seed";
      seconds = int "seconds";
      trace = (match get "trace" with "0" -> false | "1" -> true | _ -> die "--trace: 0 or 1");
      ucp = get "ucp";
      out = get "out";
    }
  in
  if a.seconds < 1 then die "--seconds must be positive";
  a

let nproc = Domain.recommended_domain_count ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* VmHWM of a process, MB *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | l ->
        if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

let median xs = B.quantile 0.5 xs

(* Every run prints every metric BENCHMARK.json lists for its mode, in
   that order; a per-layer metric whose layer the workload does not
   exercise reads 0 with n=0. *)
let benchmark_metrics key =
  let src =
    try In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
    with Sys_error msg -> die "%s" msg
  in
  let field k m = Option.bind (Json.member k m) Json.to_str in
  let list j = Option.bind (Json.member key j) Json.to_list in
  match Option.bind (Result.to_option (Json.parse src)) list with
  | None -> die "BENCHMARK.json: no %s list" key
  | Some ms ->
    List.map
      (fun m ->
        match (field "name" m, field "unit" m) with
        | Some name, Some unit_ -> (name, unit_)
        | _ -> die "BENCHMARK.json: a %s metric lacks a name or unit" key)
      ms

(* ------------------------------------------------------------------ *)
(* reporting *)

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (* correctness failures, one line each *)
  metrics : B.metric list;
}

let metric ?(n = 1) m_name m_unit m_value = { B.m_name; m_value; m_unit; m_n = n }

let print_outcome o =
  List.iter (fun p -> Printf.printf "# FAIL %s\n" p) o.problems;
  List.iter
    (fun m -> Printf.printf "# %-28s %16.6f %-6s n=%d\n" m.B.m_name m.B.m_value m.B.m_unit m.B.m_n)
    o.metrics;
  let finite = List.for_all (fun m -> Float.is_finite m.B.m_value) o.metrics in
  let correct = o.problems = [] && finite in
  print_endline
    (B.result_json ~correct ~attempted:o.attempted ~failed:o.failed o.metrics);
  exit (if correct then 0 else 1)

(* mean of 1 - opt/orig in percent over cases with a nonzero original *)
let reduction_pct pairs =
  100.0
  *. B.mean
       (List.filter_map
          (fun (orig, opt) -> if orig = 0.0 then None else Some (1.0 -. (opt /. orig)))
          pairs)

let reductions triples =
  let pick f = reduction_pct (List.map f triples) in
  [
    metric ~n:(List.length triples) "wcet_reduction_pct" "%" (pick (fun (w, _, _) -> w));
    metric ~n:(List.length triples) "acet_reduction_pct" "%" (pick (fun (_, a, _) -> a));
    metric ~n:(List.length triples) "energy_reduction_pct" "%" (pick (fun (_, _, e) -> e));
  ]

let record_triple (r : Experiments.record) =
  let o = r.Experiments.original and p = r.Experiments.optimized in
  let f = float_of_int in
  ( (f o.Pipeline.tau, f p.Pipeline.tau),
    (f o.Pipeline.acet, f p.Pipeline.acet),
    (o.Pipeline.energy_pj, p.Pipeline.energy_pj) )

(* ------------------------------------------------------------------ *)
(* sweep workloads *)

type sweep_spec = {
  s_name : string;
  s_programs : (string * Ucp_isa.Program.t) list;
  s_configs : string list;  (* one or two per capacity band *)
  s_policies : Ucp_policy.id list;
  s_audit : Ucp_verify.mode;
  s_journal : bool;
}

let sweep_lru =
  {
    s_name = "sweep-lru";
    s_programs = Suite.all;
    s_configs = [ "k2"; "k14"; "k29" ];
    s_policies = [ Ucp_policy.Lru ];
    s_audit = Ucp_verify.Off;
    s_journal = false;
  }

let sweep_policies =
  {
    s_name = "sweep-policies-audited";
    s_programs = List.filter (fun (_, p) -> Suite.size_class p <> "large") Suite.all;
    s_configs = [ "k2"; "k9"; "k14"; "k21"; "k27"; "k33" ];
    s_policies = [ Ucp_policy.Fifo; Ucp_policy.Plru ];
    s_audit = Ucp_verify.Full;
    s_journal = true;
  }

type grid = {
  programs : (string * Ucp_isa.Program.t) list;
  configs : (string * Config.t) list;
  techs : Tech.t list;
}

let grid spec =
  {
    programs = spec.s_programs;
    configs = List.map (fun id -> (id, List.assoc id Config.paper_configs)) spec.s_configs;
    techs = Tech.all;
  }

let experiment_line spec g =
  Printf.sprintf
    "ucp experiment --programs %s --configs %s --techs %s --policies %s --refine nc%s --jobs %d"
    (String.concat "," (List.map fst g.programs))
    (String.concat "," (List.map fst g.configs))
    (String.concat "," (List.map (fun t -> t.Tech.label) g.techs))
    (String.concat "," (List.map Ucp_policy.to_string spec.s_policies))
    (match spec.s_audit with Ucp_verify.Full -> " --audit full" | _ -> "")
    nproc

let stream_digest lines =
  Digest.to_hex
    (Digest.string (String.concat "" (List.map (fun l -> B.mask_audit_s l ^ "\n") lines)))

(* what a sweep needs before its first case: the grid, the case array,
   the CACTI models, and for journaled sweeps the fingerprint and a fresh
   journal *)
let sweep_setup spec journal =
  let g = grid spec in
  let cases =
    Experiments.cases ~policies:spec.s_policies ~programs:g.programs ~configs:g.configs
      ~techs:g.techs ()
  in
  ignore (Experiments.model_table g.configs g.techs);
  Option.iter
    (fun path ->
      let fingerprint =
        Checkpoint.fingerprint ~policies:spec.s_policies ~refine:Ucp_refine.Mode.Nc
          ~programs:g.programs ~configs:g.configs ~techs:g.techs ()
      in
      Checkpoint.close (Checkpoint.start ~path ~fingerprint ~resume:false))
    journal;
  (g, cases)

type sweep_run = {
  sw : Parallel.sweep;
  wall : float;
}

let run_sweep spec g journal =
  let t0 = B.now () in
  let sw =
    Parallel.sweep ~programs:g.programs ~configs:g.configs ~techs:g.techs
      ~policies:spec.s_policies ~audit:spec.s_audit ~refine:Ucp_refine.Mode.Nc
      ~jobs:nproc ?checkpoint:journal ()
  in
  { sw; wall = B.now () -. t0 }

(* checks shared by the untraced and traced modes; returns the rendered
   record lines, the failed count and the problems found *)
let check_sweep spec run =
  let sw = run.sw in
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (id, o) ->
      add "%s: %s" id
        (match (o : Experiments.record Ucp_core.Outcome.t) with
        | Ucp_core.Outcome.Failed f -> "failed: " ^ f.Ucp_core.Outcome.exn_text
        | Ucp_core.Outcome.Timed_out -> "timed out"
        | Ucp_core.Outcome.Invariant_violation msg -> "invariant violation: " ^ msg
        | Ucp_core.Outcome.Ok _ -> "ok"))
    sw.Parallel.failures;
  let violations =
    List.filter_map
      (fun r ->
        match Experiments.check_invariants r with
        | Ok () -> None
        | Error msg ->
          add "%s:%s: %s" r.Experiments.program_name r.Experiments.config_id msg;
          Some ())
      sw.Parallel.records
  in
  let lines = List.map Report.record_json sw.Parallel.records in
  let digest = stream_digest lines in
  (match List.assoc_opt spec.s_name Pinned.digests with
  | Some pinned when pinned <> digest ->
    add "record-stream digest %s differs from the pinned %s" digest pinned
  | Some _ | None -> ());
  let failed = List.length sw.Parallel.failures + List.length violations in
  (lines, digest, failed, !problems)

(* A sweep's set-up is what a user pays before the first case: process
   start and module initialization of the ucp binary (timed as a run of
   [ucp list], which does nothing else), plus the grid set-up above. *)
let process_start_s a =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = B.now () in
  let pid = Unix.create_process a.ucp [| a.ucp; "list" |] null null null in
  let _, status = Unix.waitpid [] pid in
  let dt = B.now () -. t0 in
  Unix.close null;
  if status <> Unix.WEXITED 0 then die "%s list failed" a.ucp;
  dt

(* Set-up is a few milliseconds, so each run takes the median of many
   samples; half are taken before the timed sweep and half after it, so
   that a burst of load from other processes (or of fsync latency, for
   the journal) at one end of the run moves at most half of them.  Each
   sample follows a pause of [setup_pause_s], as a user starts ucp from
   an idle shell: back-to-back process starts ran faster, and their
   median moved by a quarter between batches a few seconds apart. *)
let sweep_setups = 32
let setup_pause_s = 0.05

let sweep_untraced spec a =
  let journal = if spec.s_journal then Some (Filename.concat a.out "journal.jsonl") else None in
  let sample_setups k =
    List.init k (fun _ ->
        Unix.sleepf setup_pause_s;
        let p = process_start_s a in
        let t0 = B.now () in
        ignore (sweep_setup spec journal);
        p +. (B.now () -. t0))
  in
  let setups_before = sample_setups (sweep_setups / 2) in
  let g, _ = sweep_setup spec journal in
  Printf.printf "# grid: %s\n%!" (experiment_line spec g);
  (* repeat the fixed grid while another repetition still fits in the
     run's seconds; every repetition must reproduce the first's stream.
     Only the first repetition's records are kept, so the peak RSS does
     not grow with the number of repetitions. *)
  let budget = float_of_int a.seconds in
  let t_start = B.now () in
  let first = run_sweep spec g journal in
  let lines, digest, failed0, problems0 = check_sweep spec first in
  Printf.printf "# record stream: %d lines, md5 %s (audit_s masked)\n" (List.length lines) digest;
  let rec reps ((n, cases, wall, failed, problems) as acc) last_wall =
    if B.now () -. t_start +. last_wall > budget then acc
    else
      let r = run_sweep spec g journal in
      let _, d, fl, ps = check_sweep spec r in
      let ps = if d <> digest then "repetition digest differs" :: ps else ps in
      reps (n + 1, cases + r.sw.Parallel.cases, wall +. r.wall, failed + fl, problems @ ps) r.wall
  in
  let n, cases, wall, failed, problems =
    reps (1, first.sw.Parallel.cases, first.wall, failed0, problems0) first.wall
  in
  let setups = setups_before @ sample_setups (sweep_setups - (sweep_setups / 2)) in
  Printf.printf "# %d repetition(s) of %d cases in %.3f s\n" n first.sw.Parallel.cases wall;
  {
    attempted = cases;
    failed;
    problems;
    metrics =
      [
        metric ~n:sweep_setups "setup_s" "s" (median setups);
        metric ~n:cases "cases_per_s" "1/s" (float_of_int cases /. wall);
        metric "peak_rss_mb" "MB" (peak_rss_mb "self");
      ]
      @ reductions (List.map record_triple first.sw.Parallel.records);
  }

(* ------------------------------------------------------------------ *)
(* traced sweep: the case chain rebuilt from public calls *)

type case_trace = {
  ct_line : string;
  ct_spans : B.span list;
  ct_rounds : int;
  ct_probe_nomay : float;
}

(* Gc words allocated by this domain while [f] runs *)
let with_alloc f =
  let mi0, _, ma0 = Gc.counters () in
  let v = f () in
  let mi1, _, ma1 = Gc.counters () in
  (v, int_of_float (mi1 -. mi0), int_of_float (ma1 -. ma0))

module Memo = struct
  (* mirrors Experiments.Analysis_memo: the original program's analysis
     is shared across the technology axis *)
  let create () = (Mutex.create (), Hashtbl.create 97)

  let find (m, t) k =
    Mutex.lock m;
    let r = Hashtbl.find_opt t k in
    Mutex.unlock m;
    r

  let add (m, t) k v =
    Mutex.lock m;
    if not (Hashtbl.mem t k) then Hashtbl.add t k v;
    Mutex.unlock m
end

let traced_case ~memo ~models ~audit ~journal idx (c : Experiments.case) =
  let id = Experiments.case_id c in
  let r = B.recorder ~key:id ~id_base:(idx * 100) in
  let program = c.Experiments.case_program
  and config = c.Experiments.case_config
  and policy = c.Experiments.case_policy in
  let m = Hashtbl.find models (config, c.Experiments.case_tech) in
  let alloc_span ~parent name f =
    let words = ref (0, 0) in
    B.span r ~parent name
      ~args:(fun () -> [ ("minor_w", fst !words); ("major_w", snd !words) ])
      (fun sid ->
        let v, mi, ma = with_alloc (fun () -> f sid) in
        words := (mi, ma);
        v)
  in
  let counters = Hashtbl.create 16 in
  let count k v =
    Hashtbl.replace counters k (v + Option.value ~default:0 (Hashtbl.find_opt counters k))
  in
  (* Wcet.analyze, split at its calls *)
  let analyze ~parent prog =
    let layout, vivu =
      B.span r ~parent "vivu" (fun _ ->
          ( Ucp_isa.Layout.make prog ~block_bytes:config.Config.block_bytes,
            Ucp_cfg.Vivu.expand prog ))
    in
    count "vivu.nodes" (Ucp_cfg.Vivu.node_count vivu);
    let a =
      alloc_span ~parent "fixpoint" (fun _ ->
          Analysis.run ~with_may:true ~policy vivu layout config)
    in
    count "fixpoint.calls" 1;
    count "fixpoint.passes" (Analysis.fixpoint_passes a);
    a
  in
  let rounds = ref 0 in
  let line, record, w0 =
    alloc_span ~parent:0 "case" (fun case_sid ->
        let key =
          Printf.sprintf "%s:%s:%s" c.Experiments.case_program_name
            c.Experiments.case_config_id (Ucp_policy.to_string policy)
        in
        let a0 =
          match Memo.find memo key with
          | Some a -> a
          | None ->
            let a = analyze ~parent:case_sid program in
            Memo.add memo key a;
            a
        in
        let w0 = B.span r ~parent:case_sid "longest_path" (fun _ -> Wcet.of_analysis a0 m) in
        let result =
          alloc_span ~parent:case_sid "optimize" (fun _ ->
              Optimizer.optimize ~initial:w0 program config m)
        in
        rounds := result.Optimizer.rounds;
        count "optimize.rounds" result.Optimizer.rounds;
        count "optimize.accepted" (List.length result.Optimizer.insertions);
        count "optimize.rejected" result.Optimizer.rejected;
        let a1 = analyze ~parent:case_sid result.Optimizer.program in
        let w1 = B.span r ~parent:case_sid "longest_path" (fun _ -> Wcet.of_analysis a1 m) in
        (* Pipeline.measure, call for call *)
        let measure prog w =
          B.span r ~parent:case_sid "measure" (fun msid ->
              let refined =
                B.span r ~parent:msid "refine" (fun _ ->
                    Explore.run ~mode:Ucp_refine.Mode.Nc w)
              in
              Option.iter
                (fun (s, _) ->
                  count "refine.states" s.Explore.s_states;
                  count "refine.nc_before" s.Explore.s_nc_before;
                  count "refine.reclassified" (s.Explore.s_ah_gained + s.Explore.s_am_gained);
                  count "refine.budget_exhausted" s.Explore.s_budget_exhausted)
                refined;
              let stats =
                B.span r ~parent:msid "simulate" (fun _ ->
                    Simulator.run ~seed:42 ~policy prog config m)
              in
              count "simulate.instructions" stats.Simulator.executed;
              let breakdown = Ucp_energy.Account.energy m stats.Simulator.counts in
              let ah, am, nc = Analysis.classification_counts w.Wcet.analysis in
              let tau = B.span r ~parent:msid "residual" (fun _ -> Wcet.tau_with_residual w) in
              {
                Pipeline.tau;
                acet = Simulator.acet stats;
                energy_pj = breakdown.Ucp_energy.Account.total_pj;
                miss_rate = stats.Simulator.miss_rate;
                executed = stats.Simulator.executed;
                demand_misses = stats.Simulator.counts.Ucp_energy.Account.misses;
                wcet_miss_bound = Analysis.miss_count_bound w.Wcet.analysis;
                ah;
                am;
                nc;
                refine = Option.map fst refined;
              })
        in
        let original = measure program w0 in
        let optimized = measure result.Optimizer.program w1 in
        let audit_v =
          if not audit then Pipeline.Not_audited
          else
            B.span r ~parent:case_sid "audit" (fun _ ->
                match
                  Ucp_verify.audit_case ~seed:42 ~corrupt:false
                    ~refine:
                      (Ucp_refine.Mode.Nc, original.Pipeline.refine, optimized.Pipeline.refine)
                    ~original:w0 ~optimized:w1 result
                with
                | Ok (Ucp_verify.Certified { checks; seconds }) ->
                  count "audit.checks" checks;
                  Pipeline.Audited { checks; seconds }
                | Ok (Ucp_verify.Skipped { reason }) -> Pipeline.Audit_skipped reason
                | Error msg -> failwith ("audit: " ^ msg))
        in
        let record =
          {
            Experiments.program_name = c.Experiments.case_program_name;
            config_id = c.Experiments.case_config_id;
            config;
            tech = c.Experiments.case_tech;
            policy;
            original;
            optimized;
            prefetches = List.length result.Optimizer.insertions;
            rejected = result.Optimizer.rejected;
            audit = audit_v;
          }
        in
        (match Experiments.check_invariants record with
        | Ok () -> ()
        | Error msg -> failwith msg);
        let line = B.span r ~parent:case_sid "codec.encode" (fun _ -> Report.record_json record) in
        Option.iter
          (fun j -> B.span r ~parent:case_sid "journal" (fun _ -> Checkpoint.record j ~id record))
          journal;
        (line, record, w0))
  in
  (* probes: one extra call each, outside the case chain *)
  let jline = Checkpoint.record_line ~id record in
  B.span r "codec.decode" (fun _ ->
      match Checkpoint.parse_line jline with
      | Some (_, back) when Report.record_json back = line -> ()
      | Some _ | None -> failwith "journal line does not decode to the same record");
  B.span r "probe.residual" (fun _ -> ignore (Wcet.tau_with_residual w0));
  let cands =
    B.span r "probe.discover" (fun _ -> List.length (Optimizer.discover w0))
  in
  count "probe.discover.candidates" cands;
  let t0 = B.now () in
  B.span r "probe.fixpoint_nomay" (fun _ ->
      let a = w0.Wcet.analysis in
      ignore
        (Analysis.run ~with_may:false ~policy (Analysis.vivu a) (Analysis.layout a) config));
  let nomay = B.now () -. t0 in
  let spans = B.spans r in
  let spans =
    List.map
      (fun s ->
        if s.B.sp_name = "case" then
          { s with B.sp_args = s.B.sp_args @ List.of_seq (Hashtbl.to_seq counters) }
        else s)
      spans
  in
  { ct_line = line; ct_spans = spans; ct_rounds = !rounds; ct_probe_nomay = nomay }

let sweep_traced spec a =
  let g, _ = sweep_setup spec None in
  Printf.printf "# grid: %s\n%!" (experiment_line spec g);
  let journal_path = Filename.concat a.out "journal.jsonl" in
  let untraced = run_sweep spec g (if spec.s_journal then Some journal_path else None) in
  let lines, digest, failed, problems = check_sweep spec untraced in
  Printf.printf "# untraced: %d cases in %.3f s, md5 %s\n%!" untraced.sw.Parallel.cases
    untraced.wall digest;
  (* the traced rebuild, same grid and job count *)
  let cases =
    Experiments.cases ~policies:spec.s_policies ~programs:g.programs ~configs:g.configs
      ~techs:g.techs ()
  in
  let models = Experiments.model_table g.configs g.techs in
  let memo = Memo.create () in
  let journal =
    if spec.s_journal then
      let fingerprint =
        Checkpoint.fingerprint ~policies:spec.s_policies ~refine:Ucp_refine.Mode.Nc
          ~programs:g.programs ~configs:g.configs ~techs:g.techs ()
      in
      Some (Checkpoint.start ~path:journal_path ~fingerprint ~resume:false)
    else None
  in
  let fsync0 = Checkpoint.synced_writes () in
  let t0 = B.now () in
  let traced =
    Parallel.try_map ~jobs:nproc
      (fun (i, c) ->
        traced_case ~memo ~models ~audit:(spec.s_audit = Ucp_verify.Full) ~journal i c)
      (Array.mapi (fun i c -> (i, c)) cases)
  in
  let traced_wall = B.now () -. t0 in
  let fsyncs = Checkpoint.synced_writes () - fsync0 in
  Option.iter Checkpoint.close journal;
  let problems = ref problems and mismatches = ref 0 in
  let ok =
    List.filter_map
      (fun x -> x)
      (List.mapi
         (fun i o ->
           match (o : case_trace Ucp_core.Outcome.t) with
           | Ucp_core.Outcome.Ok ct ->
             (match List.nth_opt lines i with
             | Some l when B.mask_audit_s l = B.mask_audit_s ct.ct_line -> ()
             | _ ->
               incr mismatches;
               problems :=
                 Printf.sprintf "%s: traced record differs from the untraced sweep"
                   (Experiments.case_id cases.(i))
                 :: !problems);
             Some ct
           | _ ->
             incr mismatches;
             problems :=
               Printf.sprintf "%s: traced rebuild failed" (Experiments.case_id cases.(i))
               :: !problems;
             None)
         (Array.to_list traced))
  in
  Printf.printf "# traced: %d cases in %.3f s, %d mismatching\n" (List.length ok) traced_wall
    !mismatches;
  let all_spans = List.concat_map (fun ct -> ct.ct_spans) ok in
  let path = Filename.concat a.out (Printf.sprintf "trace-%s-%d.json" spec.s_name a.seed) in
  let oc = open_out path in
  output_string oc (B.chrome_json ~t0 all_spans);
  output_char oc '\n';
  close_out oc;
  Printf.printf "# trace: %d spans -> %s (summarize with: ucp trace %s)\n" (List.length all_spans)
    path path;
  let selfs = B.self_times all_spans in
  let by name = List.filter (fun (s, _) -> s.B.sp_name = name) selfs in
  let dur s = s.B.sp_stop -. s.B.sp_start in
  let total name = List.fold_left (fun acc (s, _) -> acc +. dur s) 0.0 (by name) in
  let calls name = List.length (by name) in
  let arg name k =
    List.fold_left
      (fun acc (s, _) -> acc + Option.value ~default:0 (List.assoc_opt k s.B.sp_args))
      0 (by name)
  in
  let counter k = arg "case" k in
  let mwords name = float_of_int (arg name "minor_w" + arg name "major_w") /. 1e6 in
  let case_d = List.map (fun (s, _) -> dur s) (by "case") in
  let case_total = List.fold_left ( +. ) 0.0 case_d in
  let top10 =
    List.fold_left ( +. ) 0.0
      (List.filteri (fun i _ -> i < 10) (List.sort (fun x y -> compare y x) case_d))
  in
  let case_self = List.fold_left (fun acc (_, self) -> acc +. self) 0.0 (by "case") in
  let ratio x y = if y = 0.0 then 0.0 else x /. y in
  let fi = float_of_int in
  let opt_s = total "optimize" in
  let est_fixpoint =
    List.fold_left (fun acc ct -> acc +. (fi ct.ct_rounds *. ct.ct_probe_nomay)) 0.0 ok
  in
  let workers = untraced.sw.Parallel.workers in
  let busy = Array.fold_left (fun acc w -> acc +. w.Ucp_core.Telemetry.busy_s) 0.0 workers in
  let jobs = untraced.sw.Parallel.jobs in
  let nc_before = counter "refine.nc_before" in
  let n = List.length ok in
  let sweep_layers =
    [
      metric ~n "case.p50_s" "s" (B.quantile 0.5 case_d);
      metric ~n "case.p90_s" "s" (B.quantile 0.9 case_d);
      metric ~n "case.max_s" "s" (B.quantile 1.0 case_d);
      metric ~n "case.top10_share" "ratio" (ratio top10 case_total);
      metric ~n "case.covered_ratio" "ratio" (1.0 -. ratio case_self case_total);
      metric ~n:(calls "vivu") "vivu.s" "s" (total "vivu");
      metric ~n "vivu.nodes" "count" (fi (counter "vivu.nodes"));
      metric ~n:(calls "fixpoint") "fixpoint.s" "s" (total "fixpoint");
      metric ~n "fixpoint.calls" "count" (fi (counter "fixpoint.calls"));
      metric ~n "fixpoint.passes" "count" (fi (counter "fixpoint.passes"));
      metric ~n "fixpoint.alloc_mw" "Mword" (mwords "fixpoint");
      metric ~n:(calls "longest_path") "longest_path.s" "s" (total "longest_path");
      metric ~n "optimize.s" "s" opt_s;
      metric ~n "optimize.rounds" "count" (fi (counter "optimize.rounds"));
      metric ~n "optimize.accepted" "count" (fi (counter "optimize.accepted"));
      metric ~n "optimize.rejected" "count" (fi (counter "optimize.rejected"));
      metric ~n "optimize.accept_ratio" "ratio"
        (ratio (fi (counter "optimize.accepted"))
           (fi (counter "optimize.accepted" + counter "optimize.rejected")));
      metric ~n "optimize.alloc_mw" "Mword" (mwords "optimize");
      metric ~n "optimize.est_fixpoint_share" "ratio" (ratio est_fixpoint opt_s);
      metric ~n "probe.residual.s" "s" (total "probe.residual");
      metric ~n "probe.discover.s" "s" (total "probe.discover");
      metric ~n "probe.discover.candidates" "count" (fi (counter "probe.discover.candidates"));
      metric ~n "probe.fixpoint_nomay.s" "s" (total "probe.fixpoint_nomay");
      metric ~n:(calls "refine") "refine.s" "s" (total "refine");
      metric ~n "refine.states" "count" (fi (counter "refine.states"));
      metric ~n "refine.nc_before" "count" (fi nc_before);
      metric ~n "refine.reclassified" "count" (fi (counter "refine.reclassified"));
      metric ~n "refine.yield" "ratio" (ratio (fi (counter "refine.reclassified")) (fi nc_before));
      metric ~n "refine.budget_exhausted" "count" (fi (counter "refine.budget_exhausted"));
      metric ~n:(calls "simulate") "simulate.s" "s" (total "simulate");
      metric ~n "simulate.instructions" "count" (fi (counter "simulate.instructions"));
      metric ~n "simulate.instr_per_s" "1/s"
        (ratio (fi (counter "simulate.instructions")) (total "simulate"));
      metric ~n:(calls "audit") "audit.s" "s" (total "audit");
      metric ~n "audit.checks" "count" (fi (counter "audit.checks"));
      metric ~n:(calls "journal") "journal.s" "s" (total "journal");
      metric ~n "journal.fsyncs" "count" (fi fsyncs);
      metric ~n:(calls "codec.encode") "codec.encode_s" "s" (total "codec.encode");
      metric ~n:(calls "codec.decode") "codec.decode_s" "s" (total "codec.decode");
      metric ~n:jobs "pool.busy_ratio" "ratio" (ratio busy (fi jobs *. untraced.wall));
      metric ~n:jobs "pool.tail_idle_s" "s" ((fi jobs *. untraced.wall) -. busy);
      metric ~n "gc.minor_mw" "Mword" (fi (arg "case" "minor_w") /. 1e6);
      metric ~n "gc.major_mw" "Mword" (fi (arg "case" "major_w") /. 1e6);
      metric "trace.overhead_ratio" "ratio" (ratio traced_wall untraced.wall);
    ]
  in
  {
    attempted = untraced.sw.Parallel.cases;
    failed = failed + !mismatches;
    problems = !problems;
    metrics = sweep_layers;
  }

(* ------------------------------------------------------------------ *)
(* serve-zipf *)

let serve_configs = [ "k2"; "k9"; "k14"; "k21"; "k27"; "k33" ]
(* The skew of YCSB's Zipfian request generator (Cooper et al., SoCC
   2010).  Over the 414 warm ids it sends about 60% of the nominal
   requests to the daemon's 64-entry memory cache and 40% to its store. *)
let zipf_s = 0.99

(* A serve run, for --seconds S (rates in requests per second):

   1. nominal: open loop, Poisson arrivals at [nominal_rate] for
      [nominal_share] of S ([nominal_share_traced] in a traced run), ids
      Zipf-drawn over the warm half; latency is
      timed from each request's due time (the per-layer serve metrics);
   2. cold pass: every cold id once, Poisson at [cold_rate]: cold
      computes and the store writes they cause (serve.cold metrics);
   3. saturation: closed loop, [saturation_window] requests outstanding
      per connection over the warm half, for the rest of S, or for
      [saturation_share_traced] of it in a traced run: cases_per_s;
   4. traced runs only, the open-loop rate ladder for the rest of S:
      a rung passes [Perfbench.rung_passes] with [limit_s] (p99 from due
      time within the limit, and at most ceil (rate * limit_s) requests
      outstanding when its last request falls due) and answers every
      request; a failing rung is run once more before it counts.  A
      search climbs by [ladder_step] from [ladder_start] to the first
      failing rung (or steps down from it until a rung passes), then
      bisects [bisect_steps] times; serve.max_rate_rps is the answered
      rate of the top passing rung, and a run in which no rung passes
      fails;
   5. verification: every id once; all answers of every phase with a
      reference must equal it.

   The end-to-end gate uses the closed-loop rate rather than the
   ladder: on a 2-core host the ladder's knee moved by a quarter
   between runs of one seed, more than any usable bound.

   The rates and depths below were measured on a 2-core host, where the
   ladder's knee lies between 9000 and 12500 req/s:
   - [nominal_rate]: a light load, about 5% of the knee, so the nominal
     latency is service time rather than queueing;
   - [cold_rate]: cold computes take 6-14 ms at the median; from 25 to
     100 req/s their median latency stays there, at 200 req/s it is
     49 ms of queueing, so 100 is the highest doubling that measures
     compute time;
   - [saturation_window]: the closed-loop rate with 1, 2, 4, 8, 16, 32
     and 64 outstanding per connection was 6.0-7.4k, 13.5-15.1k,
     14.7k, 14.2-14.4k, 15.1-15.5k, 11.8-12.6k and 11.5-13.6k answers/s;
     4 is the smallest depth on the plateau (deeper pipelines lose
     rate to the daemon's unframing, quadratic in the depth);
   - [ladder_start]: about half the knee; a slower host steps down. *)
let nominal_rate = 500.0
let nominal_share = 0.2
let nominal_share_traced = 0.25
let cold_rate = 100.0
let saturation_window = 4
let saturation_warmup_s = 0.5
let saturation_share_traced = 0.15
let ladder_start = 6000.0
let ladder_step = 1.25
let bisect_steps = 2
let rung_s = 1.0
let limit_s = 0.050
let drain_s = 10.0
let serve_setups = 15

type universe = {
  ids : string array;  (* Zipf rank -> case id; the order is fixed across seeds *)
  cases : (string, Experiments.case) Hashtbl.t;
  warm : string list;  (* persisted into the store at set-up *)
}

(* The small Table-1 programs x [serve_configs] x both technologies x
   every policy.  The warm half holds one technology of every (program,
   config, policy) triple, drawn per triple by the seed, so the cold half
   costs the same work whatever the seed; the popularity order is fixed,
   so every seed asks for the same mix of programs and geometries. *)
let make_universe seed =
  let programs = List.filter (fun (_, p) -> Suite.size_class p = "small") Suite.all in
  let configs = List.map (fun id -> (id, List.assoc id Config.paper_configs)) serve_configs in
  let cases =
    Experiments.cases ~policies:Ucp_policy.all ~programs ~configs ~techs:Tech.all ()
  in
  let tbl = Hashtbl.create 1024 in
  Array.iter (fun c -> Hashtbl.replace tbl (Experiments.case_id c) c) cases;
  let coin = Ucp_util.Rng.create ((seed * 1_000_003) + 12) in
  let warm_tech = Hashtbl.create 512 in
  let warm =
    List.filter_map
      (fun c ->
        let key =
          Printf.sprintf "%s:%s:%s" c.Experiments.case_program_name c.Experiments.case_config_id
            (Ucp_policy.to_string c.Experiments.case_policy)
        in
        let t =
          match Hashtbl.find_opt warm_tech key with
          | Some t -> t
          | None ->
            let t = List.nth Tech.all (Ucp_util.Rng.int coin (List.length Tech.all)) in
            Hashtbl.add warm_tech key t;
            t
        in
        if c.Experiments.case_tech == t then Some (Experiments.case_id c) else None)
      (Array.to_list cases)
  in
  let ids = B.permute ~seed:0 ~salt:11 (List.map Experiments.case_id (Array.to_list cases)) in
  { ids = Array.of_list ids; cases = tbl; warm }

(* in-process reference answers, Experiments.run_case + Report.record_json,
   evaluated one after another on this domain: the oracle shares no pool
   or memo with the daemon it checks *)
let compute_records u ids =
  let models = Hashtbl.create 64 in
  List.map
    (fun id ->
      let c = Hashtbl.find u.cases id in
      let k = (c.Experiments.case_config, c.Experiments.case_tech) in
      let model =
        match Hashtbl.find_opt models k with
        | Some m -> m
        | None ->
          let m = Pipeline.model c.Experiments.case_config c.Experiments.case_tech in
          Hashtbl.add models k m;
          m
      in
      (id, Experiments.run_case ~refine:Ucp_refine.Mode.Nc ~model c))
    ids

type daemon = { pid : int; sock : string }

let live_daemons = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_daemons)

let start_daemon a ~store =
  let sock = Filename.concat a.out "serve.sock" in
  let log =
    Unix.openfile (Filename.concat a.out "serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process a.ucp
      [| a.ucp; "serve"; "--socket"; sock; "--store"; store; "--jobs"; "1" |]
      null log log
  in
  Unix.close log;
  Unix.close null;
  live_daemons := pid :: !live_daemons;
  let deadline = B.now () +. 20.0 in
  let rec ready () =
    match Ucp_serve.Client.once ~socket:sock Protocol.Health with
    | Ok (Protocol.Health_stats _) -> ()
    | _ ->
      if B.now () > deadline then die "daemon did not come up (see %s/serve.log)" a.out;
      Unix.sleepf 0.0002;
      ready ()
  in
  ready ();
  { pid; sock }

let stop_daemon d =
  ignore (Ucp_serve.Client.once ~socket:d.sock Protocol.Shutdown);
  let deadline = B.now () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
      if B.now () > deadline then (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      Unix.sleepf 0.01;
      reap ()
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  reap ();
  live_daemons := List.filter (fun p -> p <> d.pid) !live_daemons

(* a fresh store holding the warm half, persisted through Store.put *)
let warm_store a u warm_lines =
  let store = Filename.concat a.out "store" in
  rm_rf store;
  let st = Store.open_ ~dir:store in
  List.iter
    (fun (id, line) ->
      let key = Store.key ~refine:Ucp_refine.Mode.Nc (Hashtbl.find u.cases id) in
      Store.put st ~id ~key line)
    warm_lines;
  store

(* -- open-loop client -------------------------------------------- *)

type src = Src_none | Src_memory | Src_store | Src_cold | Src_shed | Src_failed

type phase = {
  ph_ids : string array;
  ph_due : float array;  (* absolute, B.now () seconds *)
  ph_sent : float array;
  ph_finish : float array;  (* give-up time for unanswered, shed or failed *)
  ph_src : src array;
  ph_json : string option array;
  mutable ph_encode_s : float;
  mutable ph_decode_s : float;
}

type conn = { fd : Unix.file_descr; queue : int Queue.t; qm : Mutex.t; mutable expect : int }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  { fd; queue = Queue.create (); qm = Mutex.create (); expect = 0 }

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Split the complete frames off [data] (the frame format of
   Protocol.frame: "<length>\n<payload>\n"); returns the payloads and
   the unconsumed tail.  Each received byte is copied a constant number
   of times, so a deep pipeline costs the client linear time. *)
let split_frames data =
  let n = String.length data in
  let rec go pos acc =
    match String.index_from_opt data pos '\n' with
    | None -> (List.rev acc, String.sub data pos (n - pos))
    | Some nl -> (
      match int_of_string_opt (String.sub data pos (nl - pos)) with
      | None -> failwith "malformed frame header from the daemon"
      | Some len ->
        let stop = nl + 1 + len + 1 in
        if stop > n then (List.rev acc, String.sub data pos (n - pos))
        else go stop (String.sub data (nl + 1) len :: acc))
  in
  go 0 []

(* The reader only stamps arrival times; responses are decoded after the
   phase, so the client's own decoding never delays the generator. *)
let reader ph conn raw ~give_up =
  let chunk = Bytes.create 65536 in
  let rec loop rest =
    if conn.expect > 0 then begin
      let left = give_up () -. B.now () in
      if left > 0.0 then
        match Unix.select [ conn.fd ] [] [] (Float.min left 0.2) with
        | [], _, _ -> loop rest
        | _ -> (
          match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | k ->
            let t = B.now () in
            let frames, rest = split_frames (rest ^ Bytes.sub_string chunk 0 k) in
            List.iter
              (fun payload ->
                Mutex.lock conn.qm;
                let i = Queue.pop conn.queue in
                conn.expect <- conn.expect - 1;
                Mutex.unlock conn.qm;
                ph.ph_finish.(i) <- t;
                raw.(i) <- Some payload)
              frames;
            loop rest)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop rest
    end
  in
  (try loop "" with Unix.Unix_error _ | Failure _ -> ());
  Mutex.lock conn.qm;
  Queue.clear conn.queue;
  conn.expect <- 0;
  Mutex.unlock conn.qm

(* Poisson arrivals at [rate] for [secs] seconds, ids Zipf-drawn *)
let schedule ~rng ~zipf ids ~rate ~secs =
  let rec go t acc =
    let t = t -. (log (1.0 -. Ucp_util.Rng.float rng 1.0) /. rate) in
    if t >= secs then List.rev acc else go t ((t, ids.(B.zipf_draw zipf rng)) :: acc)
  in
  Array.of_list (go 0.0 [])

let run_phase conns ~trace_base sched =
  let n = Array.length sched in
  let ids = Array.map snd sched in
  (* requests are encoded before the clock starts *)
  let e0 = B.now () in
  let frames =
    Array.mapi
      (fun i id ->
        let trace_id = Option.map (fun base -> Printf.sprintf "%016x" (base + i)) trace_base in
        Protocol.frame (Protocol.request_to_string (Protocol.Case { id; trace_id })))
      ids
  in
  let encode_s = B.now () -. e0 in
  let start = B.now () +. 0.01 in
  let ph =
    {
      ph_ids = ids;
      ph_due = Array.map (fun (t, _) -> start +. t) sched;
      ph_sent = Array.make n nan;
      ph_finish = Array.make n infinity;
      ph_src = Array.make n Src_none;
      ph_json = Array.make n None;
      ph_encode_s = encode_s;
      ph_decode_s = 0.0;
    }
  in
  let raw = Array.make n None in
  let k = Array.length conns in
  Array.iteri (fun c conn -> conn.expect <- (n - c + k - 1) / k) conns;
  let give_up_at = ref infinity in
  let threads =
    Array.map
      (fun conn -> Thread.create (fun () -> reader ph conn raw ~give_up:(fun () -> !give_up_at)) ())
      conns
  in
  for i = 0 to n - 1 do
    let wait = ph.ph_due.(i) -. B.now () in
    if wait > 0.0 then Unix.sleepf wait;
    let conn = conns.(i mod k) in
    ph.ph_sent.(i) <- B.now ();
    Mutex.lock conn.qm;
    Queue.push i conn.queue;
    Mutex.unlock conn.qm;
    (try write_all conn.fd frames.(i) with Unix.Unix_error _ -> ())
  done;
  give_up_at := B.now () +. drain_s;
  Array.iter Thread.join threads;
  let gave_up = !give_up_at in
  let d0 = B.now () in
  Array.iteri
    (fun i r ->
      match Option.map Protocol.response_of_string r with
      | Some (Ok (Protocol.Record { id; source; json; _ })) when id = ids.(i) ->
        ph.ph_json.(i) <- Some json;
        ph.ph_src.(i) <-
          (match source with
          | Protocol.Memory -> Src_memory
          | Protocol.Store -> Src_store
          | Protocol.Computed -> Src_cold)
      | Some (Ok (Protocol.Retry _)) -> ph.ph_src.(i) <- Src_shed
      | Some _ -> ph.ph_src.(i) <- Src_failed
      | None -> ())
    raw;
  ph.ph_decode_s <- B.now () -. d0;
  Array.iteri
    (fun i s ->
      match s with
      | Src_memory | Src_store | Src_cold -> ()
      | Src_none | Src_shed | Src_failed -> ph.ph_finish.(i) <- Float.max gave_up ph.ph_due.(i))
    ph.ph_src;
  ph

let answered ph =
  Array.fold_left
    (fun n s -> match s with Src_memory | Src_store | Src_cold -> n + 1 | _ -> n)
    0 ph.ph_src

let latencies ph = Array.to_list (Array.mapi (fun i f -> f -. ph.ph_due.(i)) ph.ph_finish)

(* every answer to an id with an in-process reference must be byte-equal *)
let check_phase refs ph =
  let problems = ref [] in
  Array.iteri
    (fun i j ->
      match j with
      | None -> ()
      | Some json -> (
        match Hashtbl.find_opt refs ph.ph_ids.(i) with
        | Some expected when expected <> json ->
          problems :=
            Printf.sprintf "%s: daemon answer differs from run_case" ph.ph_ids.(i) :: !problems
        | Some _ | None -> ()))
    ph.ph_json;
  !problems

(* Closed loop: each connection keeps [saturation_window] requests
   outstanding and sends the next one as each answer arrives, for [secs]
   seconds.  The rate is the records answered between
   [saturation_warmup_s] and the end of the phase, divided by that
   window: every stall of the daemon inside it counts.  Every answer
   must be a record, and every 16th is decoded and compared with its
   reference. *)
type saturation = { sat_rate : float; sat_sent : int; sat_failed : int; sat_problems : string list }

let saturate conns ~seed ~zipf ~ids ~refs ~secs =
  let start = B.now () in
  let stop = start +. secs and counted_from = start +. saturation_warmup_s in
  let counted = Array.make (Array.length conns) 0 in
  let one c conn =
    let rng = Ucp_util.Rng.create ((seed * 7919) + c) in
    let pending = Queue.create () in
    let sent = ref 0 and failed = ref 0 and problems = ref [] in
    let send () =
      let id = ids.(B.zipf_draw zipf rng) in
      Queue.push id pending;
      incr sent;
      write_all conn.fd
        (Protocol.frame (Protocol.request_to_string (Protocol.Case { id; trace_id = None })))
    in
    let is_record p =
      let tag = {|"resp":"record"|} in
      let n = String.length tag in
      let rec scan i =
        i + n <= min (String.length p) 64 && (String.sub p i n = tag || scan (i + 1))
      in
      scan 0
    in
    let answer t payload =
      let id = Queue.pop pending in
      if not (is_record payload) then incr failed
      else if t >= counted_from && t < stop then counted.(c) <- counted.(c) + 1;
      if !sent land 15 = 0 then
        match Protocol.response_of_string payload with
        | Ok (Protocol.Record { id = rid; json; _ }) when rid = id ->
          if Hashtbl.find_opt refs id <> Some json then
            problems := Printf.sprintf "%s: daemon answer differs from run_case" id :: !problems
        | _ -> problems := Printf.sprintf "%s: not answered with its record" id :: !problems
    in
    let chunk = Bytes.create 65536 in
    let give_up = stop +. drain_s in
    let rec loop rest =
      if not (Queue.is_empty pending) && B.now () < give_up then
        match Unix.select [ conn.fd ] [] [] 0.2 with
        | [], _, _ -> loop rest
        | _ -> (
          match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | k ->
            let t = B.now () in
            let frames, rest = split_frames (rest ^ Bytes.sub_string chunk 0 k) in
            List.iter
              (fun payload ->
                answer t payload;
                if t < stop then send ())
              frames;
            loop rest)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop rest
    in
    (try
       for _ = 1 to saturation_window do send () done;
       loop ""
     with Unix.Unix_error _ | Failure _ -> ());
    (!sent, !failed + Queue.length pending, !problems)
  in
  let results = Array.make (Array.length conns) (0, 0, []) in
  let threads =
    Array.mapi (fun c conn -> Thread.create (fun () -> results.(c) <- one c conn) ()) conns
  in
  Array.iter Thread.join threads;
  Array.fold_left
    (fun acc (sent, failed, problems) ->
      {
        acc with
        sat_sent = acc.sat_sent + sent;
        sat_failed = acc.sat_failed + failed;
        sat_problems = problems @ acc.sat_problems;
      })
    {
      sat_rate = float_of_int (Array.fold_left ( + ) 0 counted) /. (stop -. counted_from);
      sat_sent = 0;
      sat_failed = 0;
      sat_problems = [];
    }
    results

type serve_result = {
  sr_all : (string * Experiments.record) list;  (* in-process reference records *)
  sr_setups : float list;
  sr_nominal : phase;
  sr_verify : phase;  (* every universe id once, after the timed phases *)
  sr_cold : phase;  (* every cold id once *)
  sr_sat : saturation;
  sr_rungs : (float * phase * bool) list;
  sr_top : phase option;  (* top passing rung of the ladder search *)
  sr_rss : float;
  sr_problems : string list;
  sr_store_find : float list;
  sr_store_put : float list;
}

let serve_run a ~traced =
  let u = make_universe a.seed in
  (* in-process answers for the whole universe: the warm half goes into
     the store, and every daemon answer is checked against them *)
  let all = compute_records u (Array.to_list u.ids) in
  let refs = Hashtbl.create 1024 and lines = Hashtbl.create 1024 in
  List.iter
    (fun (id, r) ->
      Hashtbl.replace refs id (Report.record_json r);
      Hashtbl.replace lines id (Checkpoint.record_line ~id r))
    all;
  let warm_lines = List.map (fun id -> (id, Hashtbl.find lines id)) u.warm in
  Printf.printf "# universe: %d ids (%d warm), %d reference answers\n%!" (Array.length u.ids)
    (List.length u.warm) (Hashtbl.length refs);
  (* set-up is the daemon's: from spawning it on the warmed store until
     it answers, [serve_setups] starts, each after [setup_pause_s]; the
     store writes before it are the fixture, and on a shared disk their
     fsyncs swing by half *)
  let store = warm_store a u warm_lines in
  let setups = ref [] in
  let rec setup k =
    Unix.sleepf setup_pause_s;
    let t0 = B.now () in
    let d = start_daemon a ~store in
    setups := (B.now () -. t0) :: !setups;
    if k > 1 then (stop_daemon d; setup (k - 1)) else d
  in
  let d = setup serve_setups in
  let conns = Array.init nproc (fun _ -> connect d.sock) in
  let rng = Ucp_util.Rng.create (a.seed + 77) in
  let secs = float_of_int a.seconds in
  let trace_base i = if traced then Some ((a.seed * 0x100000) + (i * 0x10000) + 1) else None in
  let is_warm = Hashtbl.create 512 in
  List.iter (fun id -> Hashtbl.replace is_warm id ()) u.warm;
  let warm_ids, cold_ids = List.partition (Hashtbl.mem is_warm) (Array.to_list u.ids) in
  let warm_ids = Array.of_list warm_ids in
  let warm_zipf = B.zipf ~n:(Array.length warm_ids) ~s:zipf_s in
  (* the timed phase draws from the warm half: memory and store tiers,
     admission and protocol; the traced run leaves room for the ladder *)
  let nominal =
    run_phase conns ~trace_base:(trace_base 0)
      (schedule ~rng ~zipf:warm_zipf warm_ids ~rate:nominal_rate
         ~secs:(secs *. if traced then nominal_share_traced else nominal_share))
  in
  (* every cold id once, paced at [cold_rate]: computes and store writes *)
  let cold =
    let t = ref 0.0 in
    run_phase conns ~trace_base:(trace_base 1)
      (Array.of_list
         (List.map
            (fun id ->
              t := !t -. (log (1.0 -. Ucp_util.Rng.float rng 1.0) /. cold_rate);
              (!t, id))
            cold_ids))
  in
  let sat =
    saturate conns ~seed:a.seed ~zipf:warm_zipf ~ids:warm_ids ~refs
      ~secs:(secs *. if traced then saturation_share_traced else 1.0 -. nominal_share)
  in
  let ladder_budget =
    B.now () +. (secs *. (1.0 -. nominal_share_traced -. saturation_share_traced))
  in
  let rungs = ref [] in
  let attempt rate =
    let i = List.length !rungs in
    let ph =
      run_phase conns ~trace_base:(trace_base (i + 2))
        (schedule ~rng ~zipf:warm_zipf warm_ids ~rate ~secs:rung_s)
    in
    let ok =
      B.rung_passes ~rate ~limit_s ~due:ph.ph_due ~finish:ph.ph_finish
      && answered ph = Array.length ph.ph_ids
    in
    rungs := (rate, ph, ok) :: !rungs;
    if ok then Some ph else None
  in
  (* a rung fails only if it fails twice in a row, so one transient
     stall of the shared host does not end the search *)
  let rung rate = match attempt rate with Some ph -> Some ph | None -> attempt rate in
  let fits () = B.now () +. rung_s <= ladder_budget +. 0.5 in
  (* climb by [ladder_step] from [ladder_start] to the first failing
     rung, or, when the first rung fails, step down the same ladder until
     one passes; then bisect between the top passing and the first
     failing rate.  The result pairs the top passing rung with the first
     failing rate, [None] for either one the budget left unfound. *)
  let rec climb lo rate =
    if not (fits ()) then (lo, None)
    else
      match rung rate with
      | Some ph -> climb (Some (rate, ph)) (rate *. ladder_step)
      | None -> if lo = None then descend rate (rate /. ladder_step) else (lo, Some rate)
  and descend hi rate =
    if not (fits ()) then (None, Some hi)
    else
      match rung rate with
      | Some ph -> (Some (rate, ph), Some hi)
      | None -> descend rate (rate /. ladder_step)
  in
  let rec bisect k ((lo_rate, _) as lo) hi =
    if k = 0 || not (fits ()) then lo
    else
      let mid = Float.round (sqrt (lo_rate *. hi)) in
      match rung mid with Some ph -> bisect (k - 1) (mid, ph) hi | None -> bisect (k - 1) lo mid
  in
  let top, ladder_problems =
    if not traced then (None, [])
    else
      match climb None ladder_start with
      | Some lo, Some hi -> (Some (snd (bisect bisect_steps lo hi)), [])
      | Some (rate, ph), None ->
        Printf.printf "# ladder: the budget ended before a rung failed; %.0f/s is a lower bound\n"
          rate;
        (Some ph, [])
      | None, _ -> (None, [ "rate ladder: no rung passed within the run" ])
  in
  let rungs = List.rev !rungs in
  let rss = peak_rss_mb (string_of_int d.pid) in
  (* untimed verification pass: every id of the universe once *)
  let verify = run_phase conns ~trace_base:None (Array.map (fun id -> (0.0, id)) u.ids) in
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  stop_daemon d;
  let problems =
    sat.sat_problems @ ladder_problems
    @ List.concat_map (check_phase refs)
        (verify :: nominal :: cold :: List.map (fun (_, p, _) -> p) rungs)
  in
  let problems =
    if answered verify = Array.length u.ids then problems
    else "verification pass: not every id was answered" :: problems
  in
  (* store micro-benchmark on a scratch store (traced runs only) *)
  let finds, puts, problems =
    if not traced then ([], [], problems)
    else begin
      let dir = Filename.concat a.out "store-micro" in
      rm_rf dir;
      let st = Store.open_ ~dir in
      let keyed =
        List.map
          (fun (id, line) -> (id, Store.key ~refine:Ucp_refine.Mode.Nc (Hashtbl.find u.cases id), line))
          (List.filteri (fun i _ -> i < 200) warm_lines)
      in
      let time f =
        let t0 = B.now () in
        let v = f () in
        (B.now () -. t0, v)
      in
      let puts = List.map (fun (id, key, line) -> fst (time (fun () -> Store.put st ~id ~key line))) keyed in
      let finds = List.map (fun (_, key, line) -> time (fun () -> Store.find st ~key = Some line)) keyed in
      rm_rf dir;
      ( List.map fst finds,
        puts,
        if List.for_all snd finds then problems
        else "scratch store: a line read back differs from the one put" :: problems )
    end
  in
  {
    sr_all = all;
    sr_setups = !setups;
    sr_nominal = nominal;
    sr_cold = cold;
    sr_sat = sat;
    sr_verify = verify;
    sr_rungs = rungs;
    sr_top = top;
    sr_rss = rss;
    sr_problems = problems;
    sr_store_find = finds;
    sr_store_put = puts;
  }

let all_phases r = r.sr_nominal :: r.sr_cold :: List.map (fun (_, p, _) -> p) r.sr_rungs

let phase_counts r =
  List.fold_left
    (fun (att, failed) ph ->
      (att + Array.length ph.ph_ids, failed + Array.length ph.ph_ids - answered ph))
    (r.sr_sat.sat_sent, r.sr_sat.sat_failed) (all_phases r)

(* answered requests per second of a rung, from its first due time to
   its last answer *)
let measured_rate ph =
  let first = Array.fold_left Float.min infinity ph.ph_due in
  let last = Array.fold_left Float.max neg_infinity ph.ph_finish in
  float_of_int (answered ph) /. (last -. first)

let serve_untraced a =
  let r = serve_run a ~traced:false in
  let attempted, failed = phase_counts r in
  {
    attempted;
    failed;
    problems = r.sr_problems;
    metrics =
      [
        metric ~n:serve_setups "setup_s" "s" (median r.sr_setups);
        metric ~n:r.sr_sat.sat_sent "cases_per_s" "1/s" r.sr_sat.sat_rate;
        metric "peak_rss_mb" "MB" r.sr_rss;
      ]
      @ reductions (List.map (fun (_, rc) -> record_triple rc) r.sr_all);
  }

let serve_traced a =
  let r = serve_run a ~traced:true in
  let attempted, failed = phase_counts r in
  List.iter
    (fun (rate, ph, ok) ->
      Printf.printf "# rung %6.0f/s: %5d sent, p99 %.4f s, backlog %d -> %s\n" rate
        (Array.length ph.ph_ids)
        (B.quantile 0.99 (latencies ph))
        (B.backlog_at ~due:ph.ph_due ~finish:ph.ph_finish
           (Array.fold_left Float.max neg_infinity ph.ph_due))
        (if ok then "pass" else "fail"))
    r.sr_rungs;
  let tier_metrics name ph s =
    let l = List.filteri (fun i _ -> ph.ph_src.(i) = s) (latencies ph) in
    let n = List.length l in
    let q p = if n = 0 then 0.0 else B.quantile p l in
    [
      metric ~n (Printf.sprintf "serve.%s.p50_s" name) "s" (q 0.5);
      metric ~n (Printf.sprintf "serve.%s.p99_s" name) "s" (q 0.99);
      metric ~n (Printf.sprintf "serve.%s.count" name) "count" (float_of_int n);
    ]
  in
  let phases = all_phases r in
  let late =
    List.concat_map
      (fun ph -> Array.to_list (Array.mapi (fun i s -> s -. ph.ph_due.(i)) ph.ph_sent))
      phases
  in
  let shed =
    List.fold_left
      (fun n ph -> n + Array.fold_left (fun n s -> if s = Src_shed then n + 1 else n) 0 ph.ph_src)
      0 phases
  in
  let sum f = List.fold_left (fun acc ph -> acc +. f ph) 0.0 phases in
  let spans =
    List.concat
      (List.mapi
         (fun p ph ->
           List.init (Array.length ph.ph_ids) (fun i ->
               {
                 B.sp_id = (p * 1_000_000) + i + 1;
                 sp_parent = 0;
                 sp_name =
                   (match ph.ph_src.(i) with
                   | Src_memory -> "request.memory"
                   | Src_store -> "request.store"
                   | Src_cold -> "request.cold"
                   | Src_shed -> "request.shed"
                   | Src_none | Src_failed -> "request.failed");
                 sp_key = ph.ph_ids.(i);
                 sp_tid = p;
                 sp_start = ph.ph_due.(i);
                 sp_stop = ph.ph_finish.(i);
                 sp_args = [ ("late_us", int_of_float ((ph.ph_sent.(i) -. ph.ph_due.(i)) *. 1e6)) ];
               }))
         phases)
  in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.B.sp_start) infinity spans in
  let path = Filename.concat a.out (Printf.sprintf "trace-serve-zipf-%d.json" a.seed) in
  let oc = open_out path in
  output_string oc (B.chrome_json ~t0 spans);
  output_char oc '\n';
  close_out oc;
  Printf.printf "# trace: %d request spans -> %s\n" (List.length spans) path;
  let nf = List.length r.sr_store_find and np = List.length r.sr_store_put in
  {
    attempted;
    failed;
    problems = r.sr_problems;
    metrics =
      tier_metrics "memory" r.sr_nominal Src_memory
      @ tier_metrics "store" r.sr_nominal Src_store
      @ tier_metrics "cold" r.sr_cold Src_cold
      @ [
          metric ~n:(Array.length r.sr_nominal.ph_ids) "serve.query.p50_s" "s"
            (B.quantile 0.5 (latencies r.sr_nominal));
          metric ~n:(Array.length r.sr_nominal.ph_ids) "serve.query.p99_s" "s"
            (B.quantile 0.99 (latencies r.sr_nominal));
          (match r.sr_top with
          | Some ph ->
            metric ~n:(Array.length ph.ph_ids) "serve.max_rate_rps" "req/s" (measured_rate ph)
          | None -> metric ~n:0 "serve.max_rate_rps" "req/s" 0.0);
          metric ~n:attempted "serve.shed.count" "count" (float_of_int shed);
          metric ~n:nf "store.find_s" "s" (median r.sr_store_find);
          metric ~n:np "store.put_s" "s" (median r.sr_store_put);
          metric ~n:(List.length late) "gen.late_p99_s" "s" (B.quantile 0.99 late);
          metric "gen.sent" "count" (float_of_int attempted);
          metric ~n:attempted "codec.encode_s" "s" (sum (fun ph -> ph.ph_encode_s));
          metric ~n:attempted "codec.decode_s" "s" (sum (fun ph -> ph.ph_decode_s));
        ];
  }

(* ------------------------------------------------------------------ *)

let () =
  (* a daemon that hangs up must surface as a failed request, not kill
     the benchmark *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let a = parse_args () in
  if not (Sys.file_exists a.ucp) then die "no ucp executable at %s" a.ucp;
  mkdir_p a.out;
  Printf.printf
    "# perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d ocaml=%s profile=%s commit=%s\n%!"
    a.workload a.seed a.seconds (if a.trace then 1 else 0) nproc Sys.ocaml_version Build_info.profile
    (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_COMMIT"));
  let outcome =
    match (a.workload, a.trace) with
    | "sweep-lru", false -> sweep_untraced sweep_lru a
    | "sweep-lru", true -> sweep_traced sweep_lru a
    | "sweep-policies-audited", false -> sweep_untraced sweep_policies a
    | "sweep-policies-audited", true -> sweep_traced sweep_policies a
    | "serve-zipf", false -> serve_untraced a
    | "serve-zipf", true -> serve_traced a
    | w, _ -> die "unknown workload %S (sweep-lru | sweep-policies-audited | serve-zipf)" w
  in
  let names = benchmark_metrics (if a.trace then "per_layer" else "end_to_end") in
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun m -> m.B.m_name = name) outcome.metrics with
        | Some m -> m
        | None -> metric ~n:0 name unit_ 0.0)
      names
  in
  print_outcome { outcome with metrics }
