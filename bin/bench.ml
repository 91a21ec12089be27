(* The tracked trajectories behind `ucp bench': each one runs a small
   fixed workload and writes one JSON line atomically, so future
   changes can see drift against the checked-in file.

     audit   BENCH_6.json   certification cost (--audit full vs off)
     refine  BENCH_8.json   refinement precision (NC counts per policy)
     serve   BENCH_10.json  daemon latency per serving tier

   A trajectory whose own check fails exits 1; [apply_baseline] gates
   a written file against a baseline and exits 5 on a regression. *)

module Config = Ucp_cache.Config
module Experiments = Ucp_core.Experiments
module Parallel = Ucp_core.Parallel

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("ucp: bench: " ^ msg);
      exit 1)
    fmt

(* the grid of the ci.sh audit-speed smoke *)
let names = [ "fft1"; "crc"; "st"; "fdct" ]
let programs () = List.map (fun n -> (n, Ucp_workloads.Suite.find n)) names

let configs () =
  List.filter (fun (id, _) -> List.mem id [ "k2"; "k5"; "k17" ]) Config.paper_configs

(* Audit-cost trajectory: the grid swept unaudited and under --audit
   full.  With the certificate fast path the audit is linear checks
   only, so the ratio must stay small; ci.sh enforces <= 3x on the
   same grid. *)
let audit_speed ~jobs ~out =
  let run audit =
    let s = Parallel.sweep ~programs:(programs ()) ~configs:(configs ()) ~audit ~jobs () in
    if s.Parallel.failures <> [] then fail "audit trajectory: sweep had failing cases";
    s
  in
  let plain = run Ucp_verify.Off in
  let audited = run Ucp_verify.Full in
  let ratio = audited.Parallel.wall_s /. Float.max 1e-9 plain.Parallel.wall_s in
  Ucp_core.Checkpoint.write_atomic ~path:out
    (Printf.sprintf
       {|{"bench":"audit-speed","grid":"%s x k2,k5,k17 x 2 techs","cases":%d,"jobs":%d,"wall_unaudited_s":%.3f,"wall_audited_s":%.3f,"ratio":%.2f}|}
       (String.concat "," names) audited.Parallel.cases audited.Parallel.jobs
       plain.Parallel.wall_s audited.Parallel.wall_s ratio
    ^ "\n");
  Printf.printf
    "audit-speed trajectory: %d cases, unaudited %.2fs vs audited %.2fs (%.2fx) -> %s\n%!"
    audited.Parallel.cases plain.Parallel.wall_s audited.Parallel.wall_s ratio out

(* Refinement-precision trajectory: the grid swept across all three
   replacement policies with --refine nc.  The exact exploration must
   strictly reduce the not-classified slot count for at least two of
   the three policies on this grid — the refinement's reason to
   exist. *)
let refine_precision ~jobs ~out =
  let s =
    Parallel.sweep ~programs:(programs ()) ~configs:(configs ())
      ~policies:[ Ucp_policy.Lru; Ucp_policy.Fifo; Ucp_policy.Plru ]
      ~refine:Ucp_refine.Mode.Nc ~jobs ()
  in
  if s.Parallel.failures <> [] then fail "refine trajectory: sweep had failing cases";
  let rows = Experiments.refine_precision s.Parallel.records in
  let delta_pct (r : Experiments.refine_row) =
    if r.Experiments.rr_tau = 0 then 0.0
    else
      100.0
      *. float_of_int (r.Experiments.rr_tau - r.Experiments.rr_tau_refined)
      /. float_of_int r.Experiments.rr_tau
  in
  let row_json (r : Experiments.refine_row) =
    Printf.sprintf
      {|{"policy":"%s","cases":%d,"nc_before":%d,"nc_after":%d,"ah_gained":%d,"am_gained":%d,"wcet_delta_pct":%.4f,"quant_cases":%d,"budget_hits":%d}|}
      (Ucp_policy.to_string r.Experiments.rr_policy)
      r.Experiments.rr_cases r.Experiments.rr_nc_before
      r.Experiments.rr_nc_after r.Experiments.rr_ah_gained
      r.Experiments.rr_am_gained (delta_pct r) r.Experiments.rr_quant_cases
      r.Experiments.rr_budget_hits
  in
  Ucp_core.Checkpoint.write_atomic ~path:out
    (Printf.sprintf
       {|{"bench":"refine-precision","grid":"%s x k2,k5,k17 x 2 techs x lru,fifo,plru","cases":%d,"jobs":%d,"wall_s":%.3f,"policies":[%s]}|}
       (String.concat "," names) s.Parallel.cases s.Parallel.jobs
       s.Parallel.wall_s
       (String.concat "," (List.map row_json rows))
    ^ "\n");
  print_string (Ucp_core.Report.refinement s.Parallel.records);
  List.iter
    (fun (r : Experiments.refine_row) ->
      Printf.printf
        "refine-precision %-5s NC %d -> %d (+%d AH, +%d AM), WCET bound -%.2f%%\n"
        (Ucp_policy.to_string r.Experiments.rr_policy)
        r.Experiments.rr_nc_before r.Experiments.rr_nc_after
        r.Experiments.rr_ah_gained r.Experiments.rr_am_gained (delta_pct r))
    rows;
  let strictly_reduced =
    List.length
      (List.filter
         (fun (r : Experiments.refine_row) ->
           r.Experiments.rr_nc_after < r.Experiments.rr_nc_before)
         rows)
  in
  if strictly_reduced < 2 then
    fail "refine trajectory FAILED: NC strictly reduced for only %d of %d policies"
      strictly_reduced (List.length rows);
  Printf.printf
    "refine-precision trajectory: NC strictly reduced for %d/%d policies -> %s\n%!"
    strictly_reduced (List.length rows) out

(* Service-latency trajectory: an in-process daemon on a temp socket
   answers a deterministic seeded query mix sized so every serving tier
   populates — two distinct cases against a 1-entry LRU cache give cold
   computes on first contact, memory hits on the immediate re-ask, and
   store hits every time the other case has just evicted the cache.
   Per-tier p50/p95/p99 are then read straight from the
   serve_latency_s{tier=...} histograms (the same registry the daemon's
   Metrics query exposes).  Every request carries a client trace id
   derived from a fixed seed, and the run honours UCP_FAULT, so CI can
   arm a stall-request fault on one of the case ids and prove the gate
   actually trips. *)
let serve_latency ~out =
  let module Server = Ucp_serve.Server in
  let module Client = Ucp_serve.Client in
  let module P = Ucp_serve.Protocol in
  let module Ctx = Ucp_obs.Ctx in
  let module Metrics = Ucp_obs.Metrics in
  let module Expo = Ucp_obs.Expo in
  (try Ucp_core.Fault.load_env ()
   with Invalid_argument msg ->
     prerr_endline ("ucp: " ^ msg);
     exit 124);
  let pid = Unix.getpid () in
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ucp-bench-%d.sock" pid)
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ucp-bench-store-%d" pid)
  in
  let rec rm_rf path =
    match Unix.lstat path with
    | exception Unix.Unix_error _ -> ()
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
    | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  in
  let cfg =
    {
      (Server.default_config ~socket ~store_dir:dir) with
      Server.jobs = 1;
      cache_capacity = 1;
      trace_seed = 7;
    }
  in
  let th = Thread.create (fun () -> Server.run ~signals:false cfg) () in
  let t0 = Unix.gettimeofday () in
  let seed = 42 in
  let index = ref 0 in
  let ids = [ "crc:k1:45nm:lru"; "fft1:k1:45nm:lru" ] in
  let ask id =
    let ctx = Ctx.derive ~seed ~index:!index in
    incr index;
    match Client.query ~socket (P.Case { id; trace_id = Some (Ctx.trace_hex ctx) }) with
    | Ok (P.Record _) -> ()
    | Ok _ -> fail "serve trajectory: unexpected response"
    | Error e -> fail "serve trajectory: query failed: %s" e
  in
  let rounds = 12 in
  for _ = 1 to rounds do
    List.iter
      (fun id ->
        ask id;
        ask id)
      ids
  done;
  (match Client.query ~socket P.Shutdown with Ok _ | Error _ -> ());
  Thread.join th;
  rm_rf dir;
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let wall = Unix.gettimeofday () -. t0 in
  let tier_stats tier =
    match Metrics.find (Printf.sprintf "serve_latency_s{tier=%S}" tier) with
    | Some (Metrics.Histogram { bounds; counts; sum; count }) ->
      let q p =
        let v = Expo.quantile ~bounds ~counts p in
        if Float.is_finite v then v
        else if count = 0 then 0.0
          (* quantile landed in the overflow bucket: report a finite
             stand-in past the last bound so the JSON stays valid and
             the gate sees the regression *)
        else 2.0 *. bounds.(Array.length bounds - 1)
      in
      (count, sum, q 0.50, q 0.95, q 0.99)
    | Some _ | None -> (0, 0.0, 0.0, 0.0, 0.0)
  in
  let tiers = [ "cache"; "store"; "cold"; "shed" ] in
  let tier_json tier =
    let count, sum, p50, p95, p99 = tier_stats tier in
    Printf.sprintf
      {|{"tier":"%s","count":%d,"sum_s":%.6f,"p50_s":%.6f,"p95_s":%.6f,"p99_s":%.6f}|}
      tier count sum p50 p95 p99
  in
  Ucp_core.Checkpoint.write_atomic ~path:out
    (Printf.sprintf
       {|{"bench":"serve-latency","mix":"%d rounds x 2 cases x 2 asks, cache_capacity 1","requests":%d,"wall_s":%.3f,"tiers":[%s]}|}
       rounds !index wall
       (String.concat "," (List.map tier_json tiers))
    ^ "\n");
  List.iter
    (fun tier ->
      let count, _, p50, p95, p99 = tier_stats tier in
      Printf.printf
        "serve-latency %-5s %4d requests  p50 %.6fs  p95 %.6fs  p99 %.6fs\n"
        tier count p50 p95 p99)
    tiers;
  Printf.printf "serve-latency trajectory: %d requests in %.2fs -> %s\n%!"
    !index wall out

(* Gate the freshly written trajectory against a checked-in baseline
   (the Bench_gate tolerance band): exit 124 on an unreadable baseline,
   5 on a regression. *)
let apply_baseline ~baseline ~current =
  match Ucp_core.Bench_gate.compare_files ~baseline ~current () with
  | Error msg ->
    prerr_endline ("ucp: bench: --baseline: " ^ msg);
    exit 124
  | Ok o ->
    print_string (Ucp_core.Bench_gate.render o);
    if not o.Ucp_core.Bench_gate.passed then begin
      Printf.eprintf "ucp: bench: perf-regression gate FAILED against %s\n%!" baseline;
      exit 5
    end
