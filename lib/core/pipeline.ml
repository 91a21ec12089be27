module Config = Ucp_cache.Config
module Tech = Ucp_energy.Tech
module Cacti = Ucp_energy.Cacti
module Account = Ucp_energy.Account
module Wcet = Ucp_wcet.Wcet
module Analysis = Ucp_wcet.Analysis
module Simulator = Ucp_sim.Simulator
module Optimizer = Ucp_prefetch.Optimizer
module Refine = Ucp_refine.Explore
module Refine_mode = Ucp_refine.Mode

type measurement = {
  tau : int;
  acet : int;
  energy_pj : float;
  miss_rate : float;
  executed : int;
  demand_misses : int;
  wcet_miss_bound : int;
  ah : int;
  am : int;
  nc : int;
  refine : Refine.summary option;
      (* additive: the base bounds above are always the unrefined ones
         (so refined and unrefined record streams stay comparable and
         the optimizer trail's endpoints keep matching); the refined
         tau / miss bound / classification counts ride along here *)
}

type timings = {
  mutable analysis_s : float;
  mutable refine_s : float;
  mutable optimize_s : float;
  mutable simulate_s : float;
  mutable audit_s : float;
}

let fresh_timings () =
  {
    analysis_s = 0.0;
    refine_s = 0.0;
    optimize_s = 0.0;
    simulate_s = 0.0;
    audit_s = 0.0;
  }

let add_timings acc t =
  acc.analysis_s <- acc.analysis_s +. t.analysis_s;
  acc.refine_s <- acc.refine_s +. t.refine_s;
  acc.optimize_s <- acc.optimize_s +. t.optimize_s;
  acc.simulate_s <- acc.simulate_s +. t.simulate_s;
  acc.audit_s <- acc.audit_s +. t.audit_s

let total_timings t =
  t.analysis_s +. t.refine_s +. t.optimize_s +. t.simulate_s +. t.audit_s

(* accumulate the wall-clock cost of [f] into one stage of [tm] *)
let stopwatch tm add f =
  match tm with
  | None -> f ()
  | Some tm ->
    let t0 = Unix.gettimeofday () in
    let r = f () in
    add tm (Unix.gettimeofday () -. t0);
    r

(* [stopwatch], and record the stage as a trace span (span recording is
   independent of whether a timings accumulator was supplied) *)
let timed ~name tm add f = stopwatch tm add (fun () -> Ucp_obs.Trace.with_span ~name f)

let on_analysis tm d = tm.analysis_s <- tm.analysis_s +. d
let on_refine tm d = tm.refine_s <- tm.refine_s +. d
let on_optimize tm d = tm.optimize_s <- tm.optimize_s +. d
let on_simulate tm d = tm.simulate_s <- tm.simulate_s +. d
let on_audit tm d = tm.audit_s <- tm.audit_s +. d

let model config tech = Cacti.model config tech

let measure ?deadline ?(seed = 42) ?model:mdl ?wcet ?timed:tm
    ?(policy = Ucp_policy.Lru) ?(refine = Refine_mode.Off)
    ?(corrupt_refine = false) program config tech =
  let m = match mdl with Some m -> m | None -> model config tech in
  (* The may analysis is on so the measurement carries real always-miss
     counts; tau and the miss bound are unaffected (always-miss and
     not-classified are charged identically in the WCET scenario). *)
  let w =
    match wcet with
    | Some w -> w
    | None ->
      timed ~name:"analysis" tm on_analysis (fun () ->
          Wcet.compute ?deadline ~with_may:true ~policy program config m)
  in
  let refined =
    match refine with
    | Refine_mode.Off -> None
    | mode ->
      (* Refine.run opens the one [refine] span itself (carrying the
         mode), so the stage is timed here without a second span *)
      stopwatch tm on_refine (fun () ->
          Refine.run ?deadline ~corrupt:corrupt_refine ~mode w)
  in
  let stats =
    timed ~name:"simulate" tm on_simulate (fun () -> Simulator.run ~seed ~policy program config m)
  in
  let breakdown = Account.energy m stats.Simulator.counts in
  let ah, am, nc = Analysis.classification_counts w.Wcet.analysis in
  {
    tau = Wcet.tau_with_residual w;
    acet = Simulator.acet stats;
    energy_pj = breakdown.Account.total_pj;
    miss_rate = stats.Simulator.miss_rate;
    executed = stats.Simulator.executed;
    demand_misses = stats.Simulator.counts.Account.misses;
    wcet_miss_bound = Analysis.miss_count_bound w.Wcet.analysis;
    ah;
    am;
    nc;
    refine = Option.map fst refined;
  }

let optimize ?model:mdl ?policy program config tech =
  let m = match mdl with Some m -> m | None -> model config tech in
  Ucp_obs.Trace.with_span ~name:"optimize" (fun () ->
      Optimizer.optimize ?policy program config m)

type audit =
  | Not_audited
  | Audited of { checks : int; seconds : float }
  | Audit_skipped of string

type comparison = {
  original : measurement;
  optimized : measurement;
  prefetches : int;
  rejected : int;
  audit : audit;
}

type audit_input = {
  ai_original : Wcet.t;
  ai_optimized : Wcet.t;
  ai_result : Optimizer.result;
  ai_corrupt : bool;
  ai_seed : int;
  ai_refine : Refine_mode.t;
  ai_refine_original : Refine.summary option;
  ai_refine_optimized : Refine.summary option;
}

let finish_audit ?deadline ?timed:tm input =
  let v =
    Ucp_obs.Trace.with_span ~name:"audit" (fun () ->
        Ucp_verify.audit_case ?deadline ~seed:input.ai_seed
          ~corrupt:input.ai_corrupt
          ~refine:
            (input.ai_refine, input.ai_refine_original, input.ai_refine_optimized)
          ~original:input.ai_original ~optimized:input.ai_optimized
          input.ai_result)
  in
  match v with
  | Ok verdict ->
    (* The audit stage of [timed] accumulates the verdict's own
       per-obligation intervals — the same measurements that feed the
       [audit_seconds_total] metrics fcounter — not a second ad-hoc
       clock around this call, so traced and untraced runs put
       identical audit numbers on the summary line. *)
    Option.iter (fun tm -> on_audit tm (Ucp_verify.verdict_seconds verdict)) tm;
    (match verdict with
    | Ucp_verify.Certified { checks; seconds } -> Audited { checks; seconds }
    | Ucp_verify.Skipped { reason } -> Audit_skipped reason)
  | Error msg -> raise (Outcome.Invariant ("audit: " ^ msg))

let prepare ?deadline ?(seed = 42) ?model:mdl ?timed:tm
    ?(policy = Ucp_policy.Lru) ?analysis0 ?(audit = false)
    ?(corrupt_cert = false) ?(refine = Refine_mode.Off)
    ?(corrupt_refine = false) program config tech =
  let m = match mdl with Some m -> m | None -> model config tech in
  (* The original program's cache-aware analysis is the most expensive
     shared artifact of a use case: compute it once and hand it to both
     the optimizer (which otherwise recomputes it as its starting
     fixpoint) and the original-program measurement — or reuse a
     [?analysis0] memoized by the sweep across the technology axis
     (the abstract interpretation never looks at the timing model).
     The may analysis is on for the sake of the measurement's
     classification counters; the optimizer's own re-analyses stay
     may-free where the policy allows it. *)
  let w0 =
    timed ~name:"analysis" tm on_analysis (fun () ->
        match analysis0 with
        | Some a -> Wcet.of_analysis a m
        | None -> Wcet.compute ?deadline ~with_may:true ~policy program config m)
  in
  let result =
    timed ~name:"optimize" tm on_optimize (fun () ->
        Optimizer.optimize ?deadline ~initial:w0 program config m)
  in
  (* The optimized program's measurement analysis, computed explicitly
     so the audit can reuse it as its independent "after" artifact. *)
  let w1 =
    timed ~name:"analysis" tm on_analysis (fun () ->
        Wcet.compute ?deadline ~with_may:true ~policy result.Optimizer.program
          config m)
  in
  (* the corrupt-refine fault targets the original side only: one
     unsound reclassification is enough for the audit to have to
     catch, and the optimized side stays an honest control *)
  let original =
    measure ?deadline ~seed ~model:m ~wcet:w0 ?timed:tm ~policy ~refine
      ~corrupt_refine program config tech
  in
  let optimized =
    measure ?deadline ~seed ~model:m ~wcet:w1 ?timed:tm ~policy ~refine
      result.Optimizer.program config tech
  in
  let cmp =
    {
      original;
      optimized;
      prefetches = List.length result.Optimizer.insertions;
      rejected = result.Optimizer.rejected;
      audit = Not_audited;
    }
  in
  let obligation =
    if not audit then None
    else
      Some
        {
          ai_original = w0;
          ai_optimized = w1;
          ai_result = result;
          ai_corrupt = corrupt_cert;
          ai_seed = seed;
          ai_refine = refine;
          ai_refine_original = original.refine;
          ai_refine_optimized = optimized.refine;
        }
  in
  (cmp, obligation)

let compare_optimized ?deadline ?seed ?model:mdl ?timed:tm ?policy ?analysis0
    ?audit ?corrupt_cert ?refine ?corrupt_refine program config tech =
  let cmp, obligation =
    prepare ?deadline ?seed ?model:mdl ?timed:tm ?policy ?analysis0 ?audit
      ?corrupt_cert ?refine ?corrupt_refine program config tech
  in
  match obligation with
  | None -> cmp
  | Some input -> { cmp with audit = finish_audit ?deadline ?timed:tm input }
