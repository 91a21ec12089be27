(* Figure 5's scenario on a single program: trade cache capacity for
   prefetching.

   The optimized binary runs on caches of 1/2 and 1/4 the capacity and
   is compared against the unoptimized binary on the full-size cache.
   Where the ACET ratio stays at or below 1.0 the smaller (cheaper,
   less leaky) cache sustains the original performance — the energy
   argument of the paper's Section 5.

     dune exec examples/downsizing.exe *)

module Config = Ucp_cache.Config
module Tech = Ucp_energy.Tech
module Pipeline = Ucp_core.Pipeline
module Optimizer = Ucp_prefetch.Optimizer

let () =
  let program = Ucp_workloads.Suite.find "st" in
  let tech = Tech.nm32 in
  let full = Config.make ~assoc:2 ~block_bytes:16 ~capacity:8192 in
  let original = Pipeline.measure program full tech in
  Printf.printf "original on %s: acet=%d energy=%.0f pJ tau=%d\n" (Config.id full)
    original.Pipeline.acet original.Pipeline.energy_pj original.Pipeline.tau;
  List.iter
    (fun factor ->
      match
        let half = Config.half_capacity full in
        if factor = 2 then half else Option.bind half Config.half_capacity
      with
      | None -> ()
      | Some small ->
        let r = Pipeline.optimize program small tech in
        let m = Pipeline.measure r.Optimizer.program small tech in
        Printf.printf
          "optimized on %s (1/%d): acet=%d (x%.3f) energy=%.0f pJ (x%.3f) tau=%d (x%.3f)\n"
          (Config.id small) factor m.Pipeline.acet
          (float_of_int m.Pipeline.acet /. float_of_int original.Pipeline.acet)
          m.Pipeline.energy_pj
          (m.Pipeline.energy_pj /. original.Pipeline.energy_pj)
          m.Pipeline.tau
          (float_of_int m.Pipeline.tau /. float_of_int original.Pipeline.tau))
    [ 2; 4 ]
