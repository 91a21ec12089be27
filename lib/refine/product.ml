(* Per-set exact reachability over the VIVU-expanded graph: the
   product of the expanded CFG with the concrete cache automaton of a
   single set, collapsed Touzeau-style — all three supported policies
   are set-partitioned, so references mapping to other sets cannot
   touch the tracked state and are simply skipped.  The walk set
   explored here (DAG plus iteration edges from a cold entry) is
   exactly the one the abstract fixpoint over-approximates, which is
   what makes the exploration's verdicts definitive: a reference that
   hits in every reachable in-state hits on every walk the WCET bound
   ranges over. *)

module Vivu = Ucp_cfg.Vivu
module Program = Ucp_isa.Program
module Layout = Ucp_isa.Layout
module Config = Ucp_cache.Config
module Deadline = Ucp_util.Deadline

(* A same-set event of one basic block: the demand access of slot
   [pos] ([fill = false]) or the fill of its prefetch. *)
type event = { pos : int; mb : int; fill : bool }

type projection = event array array

type r = {
  per_node : Ucp_policy.cset list array;
  visited : int;
  exhausted : bool;
  projection : projection;
}

let default_budget = 32768

(* Project every block once onto the set's events, in the order
   [Analysis.transfer] and the simulator apply them: demand access
   first, then the slot's prefetch fill.  Unresolved prefetch targets
   are skipped — the fixpoint that produced the classifications being
   refined has already rejected them. *)
let project ~config ~layout ~set =
  let program = Layout.program layout in
  let in_set mb = Config.set_of_mem_block config mb = set in
  Array.init (Program.block_count program) (fun block ->
      let evs = ref [] in
      for pos = 0 to Program.slots program block - 1 do
        let s = Layout.mem_block layout ~block ~pos in
        if in_set s then evs := { pos; mb = s; fill = false } :: !evs;
        match Layout.prefetch_target layout ~block ~pos with
        | Layout.Target tb when in_set tb -> evs := { pos; mb = tb; fill = true } :: !evs
        | Layout.Target _ | Layout.Not_prefetch | Layout.Unresolved _ -> ()
      done;
      Array.of_list (List.rev !evs))

(* Thread one set's concrete state through a basic block's projected
   events.  [on_access] sees the hit verdict of each same-set demand
   access — the explorer replays converged in-states through this
   very function, so the reachability sweep and the verdict pass can
   never disagree. *)
let transfer (module P : Ucp_policy.POLICY) ~assoc projection ?on_access ~block cs0 =
  let evs = projection.(block) in
  let cs = ref cs0 in
  for i = 0 to Array.length evs - 1 do
    let { pos; mb; fill } = evs.(i) in
    if fill then cs := fst (P.cset_fill ~assoc !cs mb)
    else begin
      let cs', hit, _ = P.cset_access ~assoc !cs mb in
      (match on_access with Some f -> f ~pos ~hit | None -> ());
      cs := cs'
    end
  done;
  !cs

let reachable ?deadline ?(budget = default_budget) ~policy ~set vivu layout
    config =
  let (module P : Ucp_policy.POLICY) = Ucp_policy.find policy in
  let assoc = config.Config.assoc in
  let projection = project ~config ~layout ~set in
  let n = Vivu.node_count vivu in
  let per_node : Ucp_policy.cset list array = Array.make n [] in
  let seen : (int * Ucp_policy.cset, unit) Hashtbl.t = Hashtbl.create 256 in
  let work = Queue.create () in
  let visited = ref 0 in
  let exhausted = ref false in
  let push node cs =
    if (not !exhausted) && not (Hashtbl.mem seen (node, cs)) then begin
      Hashtbl.add seen (node, cs) ();
      per_node.(node) <- cs :: per_node.(node);
      incr visited;
      if !visited > budget then exhausted := true
      else Queue.add (node, cs) work
    end
  in
  push (Vivu.entry vivu) (P.cset_empty ~assoc);
  let steps = ref 0 in
  while (not !exhausted) && not (Queue.is_empty work) do
    incr steps;
    if !steps land 255 = 0 then Deadline.check deadline;
    let node, cs = Queue.pop work in
    let nd = Vivu.node vivu node in
    let out = transfer (module P) ~assoc projection ~block:nd.Vivu.block cs in
    List.iter (fun succ -> push succ out) (Vivu.dag_succ vivu node);
    List.iter (fun succ -> push succ out) (Vivu.iter_succ vivu node)
  done;
  (* FIFO worklist + insertion-order state lists keep the result (and
     the budget cutoff point) fully deterministic *)
  Array.iteri (fun i l -> per_node.(i) <- List.rev l) per_node;
  { per_node; visited = !visited; exhausted = !exhausted; projection }
