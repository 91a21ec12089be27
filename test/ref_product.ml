(* Executable reference of the per-set product exploration: the
   slot-by-slot transfer that visits every slot of a block, maps each
   to its cache set, and resolves each prefetch target by scanning the
   program ([Program.find_uid]).  The production
   [Ucp_refine.Product] projects each block once per set onto its
   same-set events and threads states through those only; this module
   is the differential oracle it must agree with — same reachable
   in-states in the same order, same [visited] count, same budget
   cut-off, same [on_access] sequence. *)

module Vivu = Ucp_cfg.Vivu
module Program = Ucp_isa.Program
module Layout = Ucp_isa.Layout
module Instr = Ucp_isa.Instr
module Config = Ucp_cache.Config

type r = {
  per_node : Ucp_policy.cset list array;
  visited : int;
  exhausted : bool;
}

let target_mem_block layout uid =
  match Program.find_uid (Layout.program layout) uid with
  | None -> None
  | Some (block, pos) -> Some (Layout.mem_block layout ~block ~pos)

let transfer (module P : Ucp_policy.POLICY) ~assoc ~config ~layout ~set ?on_access
    ~block cs0 =
  let program = Layout.program layout in
  let cs = ref cs0 in
  for pos = 0 to Program.slots program block - 1 do
    let s = Layout.mem_block layout ~block ~pos in
    if Config.set_of_mem_block config s = set then begin
      let cs', hit, _ = P.cset_access ~assoc !cs s in
      (match on_access with Some f -> f ~pos ~hit | None -> ());
      cs := cs'
    end;
    match (Program.slot_instr program ~block ~pos).Instr.kind with
    | Instr.Compute -> ()
    | Instr.Prefetch uid -> (
      match target_mem_block layout uid with
      | Some tb when Config.set_of_mem_block config tb = set ->
        let cs', _ = P.cset_fill ~assoc !cs tb in
        cs := cs'
      | Some _ | None -> ())
  done;
  !cs

let reachable ?(budget = Ucp_refine.Product.default_budget) ~policy ~set vivu layout
    config =
  let (module P : Ucp_policy.POLICY) = Ucp_policy.find policy in
  let assoc = config.Config.assoc in
  let n = Vivu.node_count vivu in
  let per_node = Array.make n [] in
  let seen = Hashtbl.create 256 in
  let work = Queue.create () in
  let visited = ref 0 in
  let exhausted = ref false in
  let push node cs =
    if (not !exhausted) && not (Hashtbl.mem seen (node, cs)) then begin
      Hashtbl.add seen (node, cs) ();
      per_node.(node) <- cs :: per_node.(node);
      incr visited;
      if !visited > budget then exhausted := true else Queue.add (node, cs) work
    end
  in
  push (Vivu.entry vivu) (P.cset_empty ~assoc);
  while (not !exhausted) && not (Queue.is_empty work) do
    let node, cs = Queue.pop work in
    let out =
      transfer (module P) ~assoc ~config ~layout ~set ~block:(Vivu.node vivu node).Vivu.block
        cs
    in
    List.iter (fun succ -> push succ out) (Vivu.dag_succ vivu node);
    List.iter (fun succ -> push succ out) (Vivu.iter_succ vivu node)
  done;
  { per_node = Array.map List.rev per_node; visited = !visited; exhausted = !exhausted }
