module Vivu = Ucp_cfg.Vivu
module Program = Ucp_isa.Program
module Layout = Ucp_isa.Layout
module Instr = Ucp_isa.Instr
module Abstract = Ucp_cache.Abstract
module Config = Ucp_cache.Config

type t = {
  vivu : Vivu.t;
  layout : Layout.t;
  config : Config.t;
  policy : Ucp_policy.id;
  plain : bool;
  cold_must : Abstract.t;
  cold_may : Abstract.t;
  in_must : Abstract.t array;
  in_may : Abstract.t array;
  classif : Classification.t array array;
  passes : int;
  transfers : int;
}

let slot_mem_block_of layout ~block ~pos = Layout.mem_block layout ~block ~pos

let prefetch_target layout ~block ~pos =
  match Layout.prefetch_target layout ~block ~pos with
  | Layout.Not_prefetch -> None
  | Layout.Target mb -> Some mb
  | Layout.Unresolved target_uid ->
    invalid_arg (Printf.sprintf "Analysis: prefetch targets unknown uid %d" target_uid)

(* Residency hint for a prefetch/hardware fill: known resident, known
   absent, or unknown — from the states right before the fill. *)
let fill_hint ~with_may must may tb =
  if Abstract.contains must tb then Ucp_policy.Hit
  else if with_may && not (Abstract.contains may tb) then Ucp_policy.Miss
  else Ucp_policy.Unknown

(* Transfer one node: thread both states through its slots, recording
   per-slot classifications into [classif].  With the may analysis off,
   [may0] passes through untouched (it is the cold may state) — no copy,
   no update. *)
let transfer ~vivu ~layout ~with_may ~hw_next_n ~pinned ~classif node_id (must0, may0) =
  let program = Vivu.program vivu in
  let nd = Vivu.node vivu node_id in
  let block = nd.Vivu.block in
  let n_slots = Program.slots program block in
  let recorded = classif.(node_id) in
  (* one defensive copy per node, then destructive per-slot updates —
     the inputs stay usable as the node's recorded in-states *)
  let must = Abstract.copy must0 in
  let may = if with_may then Abstract.copy may0 else may0 in
  for pos = 0 to n_slots - 1 do
    let s = slot_mem_block_of layout ~block ~pos in
    if pinned s then
      (* locked way: guaranteed hit, no replacement-state effect *)
      recorded.(pos) <- Classification.Always_hit
    else begin
      let cls =
        if Abstract.contains must s then Classification.Always_hit
        else if with_may && not (Abstract.contains may s) then
          Classification.Always_miss
        else Classification.Not_classified
      in
      recorded.(pos) <- cls;
      (* The classification of this very access is fed back into the
         abstract update as a hint: policies with outcome-dependent
         aging (FIFO) need it, LRU/PLRU ignore it. *)
      let hint =
        match cls with
        | Classification.Always_hit -> Ucp_policy.Hit
        | Classification.Always_miss -> Ucp_policy.Miss
        | Classification.Not_classified -> Ucp_policy.Unknown
      in
      Abstract.update_ip ~hint must s;
      if with_may then Abstract.update_ip ~hint may s;
      (* next-N-line-always hardware prefetching [22]: every reference
         also installs the sequentially following blocks *)
      for k = 1 to hw_next_n do
        if not (pinned (s + k)) then begin
          let hint = fill_hint ~with_may must may (s + k) in
          Abstract.fill_ip ~hint must (s + k);
          if with_may then Abstract.fill_ip ~hint may (s + k)
        end
      done
    end;
    match prefetch_target layout ~block ~pos with
    | None -> ()
    | Some tb ->
      if not (pinned tb) then begin
        let hint = fill_hint ~with_may must may tb in
        Abstract.fill_ip ~hint must tb;
        if with_may then Abstract.fill_ip ~hint may tb
      end
  done;
  (must, may)

let run ?deadline ?(with_may = true) ?(hw_next_n = 0) ?pinned
    ?(policy = Ucp_policy.Lru) vivu layout config =
  (* Plain analyses (no pinned/locked ways, no hardware next-N fills)
     are the only ones the witness-replay audit can certify; record the
     modes so the audit can report an honest [Skipped] verdict. *)
  let plain = Option.is_none pinned && hw_next_n = 0 in
  let pinned = match pinned with Some f -> f | None -> fun _ -> false in
  (* Policies whose must domain only gains precision from definite
     misses (FIFO) force the may analysis on regardless of the caller's
     [?with_may] economy.  Always-miss classifications may then appear
     where the caller expected Not_classified; the WCET bound treats
     the two identically, so only precision improves. *)
  let with_may = with_may || Ucp_policy.needs_may policy in
  let n = Vivu.node_count vivu in
  let program = Vivu.program vivu in
  (* Universe of the packed age vectors: the program's own id range
     (dense — raw ids sit near the layout's anchor address) plus the
     overshoot of hardware next-N fills past the program's end. *)
  let cold_must, cold_may =
    let ids = Layout.mem_block_ids layout in
    let base = match ids with [] -> 0 | mb :: _ -> mb in
    let universe = List.fold_left max base ids - base + hw_next_n + 2 in
    ( Abstract.empty ~policy ~base ~universe config Abstract.Must,
      Abstract.empty ~policy ~base ~universe config Abstract.May )
  in
  let classif =
    Array.init n (fun node_id ->
        let nd = Vivu.node vivu node_id in
        Array.make
          (max 1 (Program.slots program nd.Vivu.block))
          Classification.Not_classified)
  in
  let in_must = Array.make n cold_must and in_may = Array.make n cold_may in
  let out_states : (Abstract.t * Abstract.t) option array = Array.make n None in
  let entry = Vivu.entry vivu in
  let topo = Vivu.topo vivu in
  let join_may y y' = if with_may then Abstract.join y y' else y in
  let join_in node_id =
    let preds = Vivu.all_pred vivu node_id in
    let avail = List.filter_map (fun p -> out_states.(p)) preds in
    match (avail, node_id = entry) with
    | [], true -> Some (cold_must, cold_may)
    | [], false -> None
    | (m0, y0) :: rest, is_entry ->
      let m, y =
        List.fold_left
          (fun (m, y) (m', y') -> (Abstract.join m m', join_may y y'))
          (m0, y0) rest
      in
      if is_entry then Some (Abstract.join m cold_must, join_may y cold_may)
      else Some (m, y)
  in
  let transfers = ref 0 in
  let transfer node_id input =
    incr transfers;
    in_must.(node_id) <- fst input;
    in_may.(node_id) <- snd input;
    transfer ~vivu ~layout ~with_may ~hw_next_n ~pinned ~classif node_id input
  in
  (* Change-driven round robin: passes walk [topo] as a plain
     round-robin would, but a node is transferred only when a DAG or
     iteration predecessor's output changed since its last transfer
     ([dirty]) — re-transferring it would reproduce its output.  A
     successor later in [topo] sees the change in the same pass, one
     across an iteration edge in the next, exactly as under round
     robin, so the sequence of states (and FIFO's hint-driven,
     non-monotone post-fixpoint) is round robin's.  Classifications are
     recorded by every transfer: a node's last transfer saw its final
     input. *)
  let dirty = Array.make n false in
  let pending = ref 1 in
  dirty.(entry) <- true;
  let mark s =
    if not dirty.(s) then begin
      dirty.(s) <- true;
      incr pending
    end
  in
  let passes = ref 0 in
  while !pending > 0 do
    incr passes;
    if !passes > n + 1000 then failwith "Analysis.run: fixpoint did not converge";
    Ucp_util.Deadline.check deadline;
    Ucp_obs.Trace.with_span ~name:"fixpoint-pass"
      ~args:[ ("pass", Ucp_obs.Trace.Int !passes) ] (fun () ->
    Array.iter
      (fun node_id ->
        if dirty.(node_id) then begin
          dirty.(node_id) <- false;
          decr pending;
          match join_in node_id with
          | None -> ()
          | Some input ->
            let output = transfer node_id input in
            let same =
              match out_states.(node_id) with
              | None -> false
              | Some (m, y) ->
                Abstract.equal m (fst output)
                && ((not with_may) || Abstract.equal y (snd output))
            in
            if not same then begin
              out_states.(node_id) <- Some output;
              List.iter mark (Vivu.dag_succ vivu node_id);
              List.iter mark (Vivu.iter_succ vivu node_id)
            end
        end)
      topo)
  done;
  (* Nodes no state ever reaches are classified from the cold state. *)
  Array.iter
    (fun node_id ->
      if Option.is_none out_states.(node_id) then
        ignore (transfer node_id (cold_must, cold_may)))
    topo;
  Ucp_obs.Metrics.add (Ucp_obs.Metrics.counter "fixpoint_iterations_total") !passes;
  Ucp_obs.Metrics.add (Ucp_obs.Metrics.counter "fixpoint_transfers_total") !transfers;
  {
    vivu;
    layout;
    config;
    policy;
    plain;
    cold_must;
    cold_may;
    in_must;
    in_may;
    classif;
    passes = !passes;
    transfers = !transfers;
  }

let vivu t = t.vivu
let layout t = t.layout
let config t = t.config
let policy t = t.policy
let is_plain t = t.plain

let cold t = function
  | Abstract.Must -> t.cold_must
  | Abstract.May -> t.cold_may

let classif t ~node ~pos = t.classif.(node).(pos)
let in_must t node = t.in_must.(node)
let in_may t node = t.in_may.(node)

let slot_mem_block t ~node ~pos =
  let nd = Vivu.node t.vivu node in
  slot_mem_block_of t.layout ~block:nd.Vivu.block ~pos

let prefetch_target_block t ~node ~pos =
  let nd = Vivu.node t.vivu node in
  prefetch_target t.layout ~block:nd.Vivu.block ~pos

let miss_count_bound t =
  let program = Vivu.program t.vivu in
  let total = ref 0 in
  Array.iteri
    (fun node_id per_slot ->
      let nd = Vivu.node t.vivu node_id in
      let n_slots = Program.slots program nd.Vivu.block in
      let misses = ref 0 in
      for pos = 0 to n_slots - 1 do
        if Classification.is_wcet_miss per_slot.(pos) then incr misses
      done;
      total := !total + (Vivu.mult t.vivu node_id * !misses))
    t.classif;
  !total

(* Feed externally-proven facts (the exact-exploration verdicts of
   Ucp_refine) back in as tightened classifications.  The result is a
   fresh value — the caller's analysis is untouched, so unrefined and
   refined bounds can coexist in one record.  Soundness of the
   overrides is the caller's obligation; the audit re-derives the
   exploration and cross-checks. *)
let override_classif t overrides =
  let classif = Array.map Array.copy t.classif in
  List.iter (fun (node, pos, cls) -> classif.(node).(pos) <- cls) overrides;
  { t with classif }

let classification_counts t =
  let program = Vivu.program t.vivu in
  let ah = ref 0 and am = ref 0 and nc = ref 0 in
  Array.iteri
    (fun node_id per_slot ->
      let nd = Vivu.node t.vivu node_id in
      let n_slots = Program.slots program nd.Vivu.block in
      for pos = 0 to n_slots - 1 do
        match per_slot.(pos) with
        | Classification.Always_hit -> incr ah
        | Classification.Always_miss -> incr am
        | Classification.Not_classified -> incr nc
      done)
    t.classif;
  (!ah, !am, !nc)

let fixpoint_passes t = t.passes
let transfers t = t.transfers
