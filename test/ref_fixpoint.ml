(* Executable reference schedule of the must/may fixpoint: whole-graph
   round robin (every node with an input is transferred on every pass,
   until a pass changes nothing), then a separate pass that records the
   classifications from the converged in-states.  The production
   [Ucp_wcet.Analysis.run] transfers only nodes whose inputs changed and
   records inside its transfers; this module is the differential oracle
   it must agree with, state for state.  The per-slot semantics below
   mirror the production transfer, but always thread (and copy) the may
   state, also when the may analysis is off. *)

module Vivu = Ucp_cfg.Vivu
module Program = Ucp_isa.Program
module Layout = Ucp_isa.Layout
module Instr = Ucp_isa.Instr
module Abstract = Ucp_cache.Abstract
module Classification = Ucp_wcet.Classification

type result = {
  classif : Classification.t array array;
  in_must : Abstract.t array;
  in_may : Abstract.t array;
  passes : int;
  transfers : int;
}

let prefetch_target layout instr =
  match instr.Instr.kind with
  | Instr.Compute -> None
  | Instr.Prefetch uid -> Layout.mem_block_of_uid layout uid

let fill_hint ~with_may must may tb =
  if Abstract.contains must tb then Ucp_policy.Hit
  else if with_may && not (Abstract.contains may tb) then Ucp_policy.Miss
  else Ucp_policy.Unknown

let transfer ~vivu ~layout ~with_may ~hw_next_n ~pinned ~record node_id (must0, may0) =
  let program = Vivu.program vivu in
  let block = (Vivu.node vivu node_id).Vivu.block in
  let must = Abstract.copy must0 and may = Abstract.copy may0 in
  let note pos cls =
    match record with Some classif -> classif.(node_id).(pos) <- cls | None -> ()
  in
  for pos = 0 to Program.slots program block - 1 do
    let s = Layout.mem_block layout ~block ~pos in
    if pinned s then note pos Classification.Always_hit
    else begin
      let cls =
        if Abstract.contains must s then Classification.Always_hit
        else if with_may && not (Abstract.contains may s) then
          Classification.Always_miss
        else Classification.Not_classified
      in
      note pos cls;
      let hint =
        match cls with
        | Classification.Always_hit -> Ucp_policy.Hit
        | Classification.Always_miss -> Ucp_policy.Miss
        | Classification.Not_classified -> Ucp_policy.Unknown
      in
      Abstract.update_ip ~hint must s;
      if with_may then Abstract.update_ip ~hint may s;
      for k = 1 to hw_next_n do
        if not (pinned (s + k)) then begin
          let hint = fill_hint ~with_may must may (s + k) in
          Abstract.fill_ip ~hint must (s + k);
          if with_may then Abstract.fill_ip ~hint may (s + k)
        end
      done
    end;
    match prefetch_target layout (Program.slot_instr program ~block ~pos) with
    | Some tb when not (pinned tb) ->
      let hint = fill_hint ~with_may must may tb in
      Abstract.fill_ip ~hint must tb;
      if with_may then Abstract.fill_ip ~hint may tb
    | Some _ | None -> ()
  done;
  (must, may)

(* [cold] is the analysis' (must, may) cold pair — the universe rule
   stays with [Analysis.cold]. *)
let run ?(with_may = true) ?(hw_next_n = 0) ?(pinned = fun _ -> false)
    ?(policy = Ucp_policy.Lru) ~cold vivu layout =
  let with_may = with_may || Ucp_policy.needs_may policy in
  let cold_must, cold_may = cold in
  let n = Vivu.node_count vivu in
  let program = Vivu.program vivu in
  let out_states = Array.make n None and in_states = Array.make n None in
  let entry = Vivu.entry vivu in
  let join_in node_id =
    let avail = List.filter_map (fun p -> out_states.(p)) (Vivu.all_pred vivu node_id) in
    match (avail, node_id = entry) with
    | [], true -> Some (cold_must, cold_may)
    | [], false -> None
    | (m0, y0) :: rest, is_entry ->
      let m, y =
        List.fold_left
          (fun (m, y) (m', y') -> (Abstract.join m m', Abstract.join y y'))
          (m0, y0) rest
      in
      if is_entry then Some (Abstract.join m cold_must, Abstract.join y cold_may)
      else Some (m, y)
  in
  let transfers = ref 0 in
  let transfer ~record node_id input =
    incr transfers;
    transfer ~vivu ~layout ~with_may ~hw_next_n ~pinned ~record node_id input
  in
  let passes = ref 0 and changed = ref true in
  while !changed do
    incr passes;
    if !passes > n + 1000 then failwith "Ref_fixpoint.run: fixpoint did not converge";
    changed := false;
    Array.iter
      (fun node_id ->
        match join_in node_id with
        | None -> ()
        | Some input ->
          in_states.(node_id) <- Some input;
          let ((m', y') as output) = transfer ~record:None node_id input in
          let same =
            match out_states.(node_id) with
            | None -> false
            | Some (m, y) -> Abstract.equal m m' && Abstract.equal y y'
          in
          if not same then begin
            out_states.(node_id) <- Some output;
            changed := true
          end)
      (Vivu.topo vivu)
  done;
  let classif =
    Array.init n (fun node_id ->
        let slots = Program.slots program (Vivu.node vivu node_id).Vivu.block in
        Array.make (max 1 slots) Classification.Not_classified)
  in
  let in_must = Array.make n cold_must and in_may = Array.make n cold_may in
  Array.iter
    (fun node_id ->
      let input = Option.value in_states.(node_id) ~default:(cold_must, cold_may) in
      in_must.(node_id) <- fst input;
      in_may.(node_id) <- snd input;
      ignore (transfer ~record:(Some classif) node_id input))
    (Vivu.topo vivu);
  { classif; in_must; in_may; passes = !passes; transfers = !transfers }
