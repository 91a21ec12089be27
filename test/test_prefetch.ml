(* Tests for Ucp_prefetch: the optimizer's guarantees (Theorem 1 and
   prefetch equivalence), candidate discovery, the placement modes, and
   the baselines. *)

module Program = Ucp_isa.Program
module Config = Ucp_cache.Config
module Cacti = Ucp_energy.Cacti
module Wcet = Ucp_wcet.Wcet
module Analysis = Ucp_wcet.Analysis
module Optimizer = Ucp_prefetch.Optimizer
module Baselines = Ucp_prefetch.Baselines
module Simulator = Ucp_sim.Simulator
module Dsl = Ucp_workloads.Dsl

let model = Ucp_testlib.tiny_model
let config = Config.make ~assoc:2 ~block_bytes:16 ~capacity:64

(* a program with a known prefetchable pattern: main loop calling an
   out-of-line routine that evicts the caller's blocks *)
let conflict_program =
  Dsl.compile ~name:"conflict"
    [ Dsl.loop 10 [ Dsl.compute 4; Dsl.Far [ Dsl.compute 6 ]; Dsl.compute 3 ] ]

(* ------------------------------------------------------------------ *)
(* optimizer guarantees *)

let test_theorem1_on_conflict_program () =
  let r = Optimizer.optimize conflict_program config model in
  Alcotest.(check bool) "tau does not grow" true
    (r.Optimizer.tau_after <= r.Optimizer.tau_before);
  Alcotest.(check bool) "prefetch equivalent" true
    (Program.prefetch_equivalent conflict_program r.Optimizer.program)

let test_optimizer_improves_conflict_program () =
  (* the two profitable prefetches only pay off together (each alone
     shifts a block boundary); a loose budget lets the batch through *)
  let r = Optimizer.optimize ~overhead_budget:0.25 conflict_program config model in
  Alcotest.(check bool) "inserts something" true (r.Optimizer.insertions <> []);
  Alcotest.(check bool) "tau strictly improves" true
    (r.Optimizer.tau_after < r.Optimizer.tau_before)

let test_optimizer_noop_when_fitting () =
  (* the whole program fits in a big cache: nothing to do *)
  let big = Config.make ~assoc:2 ~block_bytes:16 ~capacity:8192 in
  let r = Optimizer.optimize conflict_program big model in
  Alcotest.(check int) "no insertions" 0 (List.length r.Optimizer.insertions);
  Alcotest.(check int) "tau unchanged" r.Optimizer.tau_before r.Optimizer.tau_after

let test_insertion_metadata_consistent () =
  let r = Optimizer.optimize ~overhead_budget:0.25 conflict_program config model in
  List.iter
    (fun (ins : Optimizer.insertion) ->
      Alcotest.(check bool) "per-step tau non-increase" true
        (ins.Optimizer.tau_after <= ins.Optimizer.tau_before);
      (* the inserted uid exists in the final program *)
      Alcotest.(check bool) "prefetch uid present" true
        (Program.find_uid r.Optimizer.program ins.Optimizer.prefetch_uid <> None))
    r.Optimizer.insertions

let test_max_insertions_respected () =
  let r = Optimizer.optimize ~max_insertions:1 conflict_program config model in
  Alcotest.(check bool) "at most..." true (List.length r.Optimizer.insertions <= 1)

let test_overhead_budget_zero_blocks_everything () =
  let r = Optimizer.optimize ~overhead_budget:0.0 conflict_program config model in
  (* the floor of 16 dynamic executions still allows tiny insertions;
     a zero budget must keep the overhead at or below that floor *)
  Alcotest.(check bool) "tiny budget, few insertions" true
    (List.length r.Optimizer.insertions <= 16)

let test_placement_modes_both_safe () =
  List.iter
    (fun placement ->
      let r = Optimizer.optimize ~placement conflict_program config model in
      Alcotest.(check bool) "safe" true (r.Optimizer.tau_after <= r.Optimizer.tau_before))
    [ Optimizer.At_eviction; Optimizer.Latest_effective ]

let test_discover_candidates_shape () =
  let w = Wcet.compute ~with_may:false conflict_program config model in
  let cands = Optimizer.discover w in
  List.iter
    (fun c ->
      Alcotest.(check bool) "gain positive" true (c.Optimizer.cand_gain > 0);
      Alcotest.(check bool) "cost positive" true (c.Optimizer.cand_cost > 0);
      Alcotest.(check bool) "target uid exists" true
        (Program.find_uid conflict_program c.Optimizer.cand_target_uid <> None))
    cands

(* property: Theorem 1 + prefetch equivalence on random programs and
   configurations *)
let prop_theorem1 =
  QCheck2.Test.make ~name:"Theorem 1 on random programs/configs" ~count:60
    ~print:(fun (p, c) -> Ucp_testlib.print_program p ^ " @ " ^ Ucp_testlib.print_config c)
    QCheck2.Gen.(pair Ucp_testlib.gen_program Ucp_testlib.gen_config)
    (fun (p, c) ->
      let r = Optimizer.optimize p c model in
      r.Optimizer.tau_after <= r.Optimizer.tau_before
      && Program.prefetch_equivalent p r.Optimizer.program)

(* property: the optimized program still respects the WCET bound in
   simulation (soundness survives optimization) *)
let prop_optimized_sim_within_wcet =
  QCheck2.Test.make ~name:"optimized binaries stay within tau_with_residual" ~count:40
    ~print:(fun (p, seed) -> Printf.sprintf "%s seed=%d" (Ucp_testlib.print_program p) seed)
    QCheck2.Gen.(pair Ucp_testlib.gen_program (int_bound 100))
    (fun (p, seed) ->
      let r = Optimizer.optimize p config model in
      let w = Wcet.compute ~with_may:false r.Optimizer.program config model in
      let stats = Simulator.run ~seed r.Optimizer.program config model in
      Simulator.acet stats <= Wcet.tau_with_residual w)

(* property: the analysis miss bound of the optimized program never
   exceeds the original's (Condition 2 in aggregate) *)
let prop_miss_bound_non_increase =
  QCheck2.Test.make ~name:"optimization never increases the final tau bound" ~count:50
    ~print:Ucp_testlib.print_program Ucp_testlib.gen_program (fun p ->
      let r = Optimizer.optimize p config model in
      let w0 = Wcet.compute ~with_may:false p config model in
      let w1 = Wcet.compute ~with_may:false r.Optimizer.program config model in
      Wcet.tau_with_residual w1 <= Wcet.tau_with_residual w0)

let test_optimizer_deterministic () =
  let a = Optimizer.optimize conflict_program config model in
  let b = Optimizer.optimize conflict_program config model in
  Alcotest.(check int) "same insertions" (List.length a.Optimizer.insertions)
    (List.length b.Optimizer.insertions);
  Alcotest.(check int) "same tau" a.Optimizer.tau_after b.Optimizer.tau_after

(* ------------------------------------------------------------------ *)
(* baselines *)

let test_bb_start_inserts () =
  let p = Baselines.bb_start conflict_program config model in
  Alcotest.(check bool) "adds prefetches" true (Program.prefetch_count p > 0);
  Alcotest.(check bool) "prefetch equivalent" true
    (Program.prefetch_equivalent conflict_program p)

let test_bb_start_prefetches_at_block_start () =
  let p = Baselines.bb_start conflict_program config model in
  (* in every block, prefetches only appear as a prefix of the body *)
  for b = 0 to Program.block_count p - 1 do
    let body = (Program.block p b).Program.body in
    let seen_compute = ref false in
    Array.iter
      (fun i ->
        if Ucp_isa.Instr.is_prefetch i then
          Alcotest.(check bool) "prefix only" false !seen_compute
        else seen_compute := true)
      body
  done

let test_lock_greedy_respects_geometry () =
  let lock = Baselines.lock_greedy conflict_program config model in
  (* at most [assoc] locked blocks per set *)
  let per_set = Hashtbl.create 8 in
  List.iter
    (fun mb ->
      let s = Config.set_of_mem_block config mb in
      Hashtbl.replace per_set s (1 + try Hashtbl.find per_set s with Not_found -> 0))
    lock.Baselines.locked_blocks;
  Hashtbl.iter
    (fun _ n -> Alcotest.(check bool) "within assoc" true (n <= config.Config.assoc))
    per_set

let test_wcet_locked_extremes () =
  let layout = Ucp_isa.Layout.make conflict_program ~block_bytes:16 in
  let all = Ucp_isa.Layout.mem_block_ids layout in
  let tau_all = Baselines.wcet_locked conflict_program config model ~locked:all in
  let tau_none = Baselines.wcet_locked conflict_program config model ~locked:[] in
  Alcotest.(check bool) "all-locked is all hits" true (tau_all < tau_none);
  (* all-locked tau equals the WCET-path reference count *)
  let w = Wcet.compute conflict_program config model in
  let refs = Array.length (Wcet.path_refs w) in
  let path_instrs =
    (* tau with everything hitting = weighted path instruction count *)
    Array.fold_left
      (fun acc nid ->
        let nd = Ucp_cfg.Vivu.node (Analysis.vivu w.Wcet.analysis) nid in
        acc
        + w.Wcet.n_w.(nid)
          * Program.slots conflict_program nd.Ucp_cfg.Vivu.block)
      0 w.Wcet.path
  in
  ignore refs;
  Alcotest.(check int) "all-locked tau" path_instrs tau_all

let test_lock_greedy_beats_empty_lock () =
  let lock = Baselines.lock_greedy conflict_program config model in
  let tau_none = Baselines.wcet_locked conflict_program config model ~locked:[] in
  Alcotest.(check bool) "greedy content helps" true (lock.Baselines.tau_locked <= tau_none)

let test_hybrid_locking () =
  let h = Baselines.lock_hybrid ~ways:1 conflict_program config model in
  (* geometry: one way locked, one way left *)
  Alcotest.(check int) "unlocked assoc" 1 h.Baselines.hybrid_config.Config.assoc;
  Alcotest.(check int) "same sets" config.Config.sets
    h.Baselines.hybrid_config.Config.sets;
  (* at most [ways] pinned blocks per set *)
  let per_set = Hashtbl.create 8 in
  List.iter
    (fun mb ->
      let s = Config.set_of_mem_block config mb in
      Hashtbl.replace per_set s (1 + (try Hashtbl.find per_set s with Not_found -> 0)))
    h.Baselines.hybrid_pinned;
  Hashtbl.iter (fun _ n -> Alcotest.(check bool) "<= ways" true (n <= 1)) per_set;
  (* pinned fetches never miss in simulation *)
  let stats =
    Simulator.run ~pinned:h.Baselines.hybrid_pinned
      ~cache_config:h.Baselines.hybrid_config h.Baselines.hybrid_program config model
  in
  Alcotest.(check bool) "hybrid runs" true (stats.Simulator.executed > 0);
  (* the hybrid WCET is at least as good as full locking of one way
     with nothing else (sanity: it has strictly more machinery) *)
  Alcotest.(check bool) "tau positive" true (h.Baselines.hybrid_tau > 0)

let test_hybrid_rejects_bad_ways () =
  Alcotest.(check bool) "ways = assoc rejected" true
    (try
       ignore (Baselines.lock_hybrid ~ways:config.Config.assoc conflict_program config model);
       false
     with Invalid_argument _ -> true)

let prop_bb_start_safe_bound =
  QCheck2.Test.make ~name:"bb-start WCET bound stays sound in simulation" ~count:40
    ~print:Ucp_testlib.print_program Ucp_testlib.gen_program (fun p ->
      let bb = Baselines.bb_start p config model in
      let w = Wcet.compute ~with_may:false bb config model in
      let stats = Simulator.run bb config model in
      Simulator.acet stats <= Wcet.tau_with_residual w)

(* ------------------------------------------------------------------ *)
(* candidate-discovery golden: the exact candidate list (every field, in
   order) of a few small programs under each replacement policy, so a
   change to the victim detection or the chain walk shows up here and
   not only in sweep digests.  "conflict+pf" already carries accepted
   prefetches, which puts the fill transfers on the walked path.
   Rendering: node/block/pos<before_uid:target_uid@target_block
   #use_position+gain*cost. *)

let render_candidate (c : Optimizer.candidate) =
  Printf.sprintf "%d/%d/%d<%d:%d@%d#%d+%d*%d" c.Optimizer.cand_insert_node
    c.Optimizer.cand_insert_block c.Optimizer.cand_insert_pos c.Optimizer.cand_before_uid
    c.Optimizer.cand_target_uid c.Optimizer.cand_target_block
    c.Optimizer.cand_use_position c.Optimizer.cand_gain c.Optimizer.cand_cost

let discover_golden =
  [
    ( "conflict",
      "lru",
      [
        "6/4/4<14:5@1048573#28+17*10";
        "4/1/1<1:13@1048575#24+17*10";
      ] );
    ( "conflict",
      "fifo",
      [
        "6/4/4<14:5@1048573#28+17*10";
        "4/1/1<1:13@1048575#24+17*10";
      ] );
    ( "conflict",
      "plru",
      [
        "6/4/4<14:5@1048573#28+17*10";
        "4/1/1<1:13@1048575#24+17*10";
      ] );
    ( "conflict+pf",
      "lru",
      [
        "4/1/2<1:5@1048573#30+17*10";
      ] );
    ( "conflict+pf",
      "fifo",
      [
        "4/1/2<1:5@1048573#30+17*10";
      ] );
    ( "conflict+pf",
      "plru",
      [
        "4/1/2<1:5@1048573#30+17*10";
      ] );
    ("fibcall", "lru", []);
    ("fibcall", "fifo", []);
    ("fibcall", "plru", []);
    ( "bs",
      "lru",
      [
        "9/4/0<25:26@1048574#37+7*5";
        "8/3/0<20:22@1048573#33+7*5";
        "5/1/3<11:20@1048572#31+7*5";
        "5/1/1<9:14@1048571#30+7*5";
        "5/1/0<8:10@1048570#26+7*5";
      ] );
    ( "bs",
      "fifo",
      [
        "9/4/0<25:26@1048574#37+7*5";
        "5/1/3<11:18@1048572#34+7*5";
        "5/1/2<10:25@1048573#36+7*5";
        "5/1/1<9:14@1048571#30+7*5";
        "5/1/0<8:10@1048570#26+7*5";
      ] );
    ( "bs",
      "plru",
      [
        "9/4/0<25:26@1048574#37+7*5";
        "8/3/0<20:22@1048573#33+7*5";
        "5/1/3<11:20@1048572#31+7*5";
        "5/1/1<9:14@1048571#30+7*5";
        "5/1/0<8:10@1048570#26+7*5";
      ] );
    ( "crc",
      "lru",
      [
        "13/2/0<31:36@1048561#135+509*256";
        "9/4/19<69:84@1048573#127+509*256";
        "9/4/15<65:80@1048572#123+509*256";
        "9/4/3<53:68@1048569#111+509*256";
        "9/4/1<51:64@1048568#107+509*256";
        "7/1/5<21:52@1048565#95+509*256";
        "7/1/1<17:50@1048564#93+509*256";
        "7/1/0<16:20@1048557#82+509*256";
      ] );
    ( "crc",
      "fifo",
      [
        "13/2/0<31:36@1048561#135+509*256";
        "9/4/19<69:84@1048573#127+509*256";
        "9/4/3<53:68@1048569#111+509*256";
        "7/1/5<21:52@1048565#95+509*256";
        "7/1/4<20:32@1048560#131+509*256";
        "7/1/3<19:80@1048572#123+509*256";
        "7/1/2<18:64@1048568#107+509*256";
        "7/1/1<17:50@1048564#93+509*256";
        "7/1/0<16:20@1048557#82+509*256";
      ] );
    ( "crc",
      "plru",
      [
        "13/2/4<35:40@1048562#139+509*256";
        "9/4/19<69:36@1048561#135+509*256";
        "9/4/15<65:32@1048560#131+509*256";
        "9/4/11<61:76@1048571#119+509*256";
        "9/4/7<57:72@1048570#115+509*256";
        "9/4/3<53:84@1048573#127+509*256";
        "9/4/1<51:80@1048572#123+509*256";
        "7/1/9<25:56@1048566#99+509*256";
        "7/1/5<21:68@1048569#111+509*256";
        "7/1/1<17:64@1048568#107+509*256";
        "7/1/0<16:24@1048558#86+509*256";
        "7/1/12<28:52@1048565#95+509*256";
        "7/1/10<26:50@1048564#93+509*256";
        "9/4/5<55:60@1048567#103+509*256";
        "7/1/0<16:20@1048557#82+509*256";
      ] );
    ( "fft1",
      "lru",
      [
        "32/3/0<45:54@1048559#261+187*128";
        "28/8/14<103:121@1048575#251+187*128";
        "28/8/1<90:102@1048571#238+187*128";
        "26/2/7<39:89@1048567#225+187*128";
        "26/2/1<33:38@1048555#218+187*128";
        "27/4/1<61:66@1048562#273+13*8";
        "11/1/7<31:94@1048569#175+13*8";
        "11/1/3<27:90@1048568#171+13*8";
        "11/1/1<25:89@1048567#170+13*8";
        "11/1/0<24:34@1048554#159+13*8";
        "11/1/1<25:30@1048553#155+13*8";
        "11/1/0<24:26@1048552#151+13*8";
      ] );
    ( "fft1",
      "fifo",
      [
        "27/4/1<61:66@1048562#273+13*8";
        "11/1/7<31:94@1048569#175+13*8";
        "11/1/6<30:58@1048560#210+13*8";
        "11/1/5<29:106@1048572#187+13*8";
        "11/1/4<28:90@1048568#171+13*8";
        "11/1/3<27:42@1048556#167+13*8";
        "11/1/0<24:34@1048554#159+13*8";
        "11/1/1<25:30@1048553#155+13*8";
        "11/1/0<24:26@1048552#151+13*8";
      ] );
    ( "fft1",
      "plru",
      [
        "31/11/0<121:50@1048558#257+187*128";
        "31/11/0<121:46@1048557#253+187*128";
        "32/3/8<53:58@1048560#265+187*128";
        "28/8/14<103:54@1048559#261+187*128";
        "28/8/10<99:114@1048574#250+187*128";
        "28/8/6<95:110@1048573#246+187*128";
        "28/8/2<91:106@1048572#242+187*128";
        "28/8/1<90:121@1048575#251+187*128";
        "26/2/7<39:102@1048571#238+187*128";
        "26/2/3<35:98@1048570#234+187*128";
        "26/2/1<33:94@1048569#230+187*128";
        "26/2/9<41:90@1048568#226+187*128";
        "26/2/8<40:89@1048567#225+187*128";
        "26/2/0<32:34@1048554#214+187*128";
        "26/2/1<33:38@1048555#218+187*128";
        "27/4/1<61:66@1048562#273+13*8";
        "11/1/7<31:110@1048573#191+13*8";
        "11/1/3<27:106@1048572#187+13*8";
        "11/1/1<25:102@1048571#183+13*8";
        "11/1/0<24:98@1048570#179+13*8";
        "11/1/5<29:34@1048554#159+13*8";
        "11/1/1<25:30@1048553#155+13*8";
        "11/1/0<24:26@1048552#151+13*8";
      ] );
  ]

let test_discover_golden () =
  let mid = Config.make ~assoc:4 ~block_bytes:16 ~capacity:256 in
  let prefetched =
    (Optimizer.optimize ~overhead_budget:0.25 conflict_program config model).Optimizer.program
  in
  let suite name = Ucp_workloads.Suite.find name in
  let programs =
    [
      ("conflict", conflict_program, config);
      ("conflict+pf", prefetched, config);
      ("fibcall", suite "fibcall", config);
      ("bs", suite "bs", config);
      ("crc", suite "crc", mid);
      ("fft1", suite "fft1", mid);
    ]
  in
  List.iter
    (fun (name, policy, expected) ->
      let _, program, cfg = List.find (fun (n, _, _) -> n = name) programs in
      let policy =
        match Ucp_policy.of_string policy with Ok p -> p | Error msg -> failwith msg
      in
      let w = Wcet.compute ~policy program cfg model in
      Alcotest.(check (list string))
        (Printf.sprintf "%s/%s" name (Ucp_policy.to_string policy))
        expected
        (List.map render_candidate (Optimizer.discover w)))
    discover_golden

let () =
  Alcotest.run "ucp_prefetch"
    [
      ( "optimizer",
        [
          Alcotest.test_case "theorem 1" `Quick test_theorem1_on_conflict_program;
          Alcotest.test_case "improves conflicts" `Quick
            test_optimizer_improves_conflict_program;
          Alcotest.test_case "noop when fitting" `Quick test_optimizer_noop_when_fitting;
          Alcotest.test_case "insertion metadata" `Quick test_insertion_metadata_consistent;
          Alcotest.test_case "max insertions" `Quick test_max_insertions_respected;
          Alcotest.test_case "overhead budget" `Quick
            test_overhead_budget_zero_blocks_everything;
          Alcotest.test_case "placement modes" `Quick test_placement_modes_both_safe;
          Alcotest.test_case "candidate shape" `Quick test_discover_candidates_shape;
          Alcotest.test_case "deterministic" `Quick test_optimizer_deterministic;
          QCheck_alcotest.to_alcotest prop_theorem1;
          QCheck_alcotest.to_alcotest prop_optimized_sim_within_wcet;
          QCheck_alcotest.to_alcotest prop_miss_bound_non_increase;
          Alcotest.test_case "candidate golden" `Quick test_discover_golden;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "bb-start inserts" `Quick test_bb_start_inserts;
          Alcotest.test_case "bb-start placement" `Quick
            test_bb_start_prefetches_at_block_start;
          Alcotest.test_case "lock geometry" `Quick test_lock_greedy_respects_geometry;
          Alcotest.test_case "locked extremes" `Quick test_wcet_locked_extremes;
          Alcotest.test_case "greedy lock helps" `Quick test_lock_greedy_beats_empty_lock;
          Alcotest.test_case "hybrid locking" `Quick test_hybrid_locking;
          Alcotest.test_case "hybrid bad ways" `Quick test_hybrid_rejects_bad_ways;
          QCheck_alcotest.to_alcotest prop_bb_start_safe_bound;
        ] );
    ]
