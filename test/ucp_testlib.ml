(* Shared generators and helpers for the test suites. *)

(* Executable reference semantics of the abstract cache domains. *)
module Ref_domain = Ref_domain

(* Executable reference schedule of the must/may fixpoint. *)
module Ref_fixpoint = Ref_fixpoint

(* Executable reference of the per-set product exploration. *)
module Ref_product = Ref_product

module Dsl = Ucp_workloads.Dsl
module Config = Ucp_cache.Config
module Cacti = Ucp_energy.Cacti

(* A small timing/energy model with a short prefetch latency so tiny
   generated programs still have room for effective prefetches. *)
let tiny_model =
  {
    Cacti.read_pj = 5.0;
    fill_pj = 8.0;
    leak_pj_per_cycle = 2.0;
    dram_read_pj = 100.0;
    dram_leak_pj_per_cycle = 10.0;
    hit_cycles = 1;
    miss_penalty = 6;
    prefetch_latency = 3;
  }

(* ------------------------------------------------------------------ *)
(* Random structured programs via the DSL.  Sizes are kept small so
   property tests stay fast; the generator exercises sequences,
   conditionals, loops (bounded), and far regions. *)

let gen_stmts =
  let open QCheck2.Gen in
  let compute = map (fun n -> Dsl.compute (1 + n)) (int_bound 12) in
  let rec stmts depth budget =
    if budget <= 0 then return []
    else
      let* len = int_range 1 3 in
      let* items = list_repeat len (stmt depth (budget / len)) in
      return items
  and stmt depth budget =
    if depth = 0 || budget <= 1 then compute
    else
      frequency
        [
          (4, compute);
          ( 2,
            let* p = float_range 0.2 0.8 in
            let* t = stmts (depth - 1) (budget / 2) in
            let* e = stmts (depth - 1) (budget / 2) in
            return (Dsl.if_ ~p t e) );
          ( 2,
            let* trips = int_range 1 6 in
            let* slack = int_bound 2 in
            let* body = stmts (depth - 1) (budget / 2) in
            let body = if body = [] then [ Dsl.compute 1 ] else body in
            return (Dsl.loop ~bound:(trips + slack) trips body) );
          ( 1,
            let* body = stmts (depth - 1) (budget / 2) in
            let body = if body = [] then [ Dsl.compute 2 ] else body in
            return (Dsl.Far body) );
        ]
  in
  let open QCheck2.Gen in
  let* depth = int_range 1 3 in
  let* budget = int_range 4 24 in
  let* body = stmts depth budget in
  return (if body = [] then [ Dsl.compute 3 ] else body)

let gen_program =
  QCheck2.Gen.map (fun stmts -> Dsl.compile ~name:"gen" stmts) gen_stmts

(* Insert prefetches at generated (block, pos, target) picks, so the
   prefetch-fill semantics is part of what an oracle compares. *)
let with_prefetches p picks =
  let module Program = Ucp_isa.Program in
  let uids = ref [] in
  Program.iter_slots p (fun ~block:_ ~pos:_ ~instr -> uids := instr.Ucp_isa.Instr.uid :: !uids);
  let uids = Array.of_list (List.rev !uids) in
  List.fold_left
    (fun p (b, i, t) ->
      let block = b mod Program.block_count p in
      let pos = i mod (Array.length (Program.block p block).Program.body + 1) in
      fst (Program.insert_prefetch p ~block ~pos ~target_uid:uids.(t mod Array.length uids)))
    p picks

let gen_prefetched_program =
  let open QCheck2.Gen in
  let* p = gen_program in
  let* picks = list_size (int_bound 4) (triple nat nat nat) in
  return (with_prefetches p picks)

let gen_config =
  let open QCheck2.Gen in
  let* assoc = oneofl [ 1; 2; 4 ] in
  let* block_bytes = oneofl [ 8; 16; 32 ] in
  let* sets_log = int_range 0 4 in
  let capacity = assoc * block_bytes * (1 lsl sets_log) in
  return (Config.make ~assoc ~block_bytes ~capacity)

let gen_access_sequence =
  (* memory-block ids in a small universe to force conflicts *)
  QCheck2.Gen.(list_size (int_range 1 60) (int_bound 12))

(* Pretty-printers for counterexample reporting *)
let print_program p = Format.asprintf "%a" Ucp_isa.Program.pp p
let print_config c = Config.id c

(* Substring check for asserting on error/exception messages. *)
let contains ~substring s =
  let n = String.length substring and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = substring || go (i + 1)) in
  n = 0 || go 0
