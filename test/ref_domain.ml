(* Executable reference semantics of the abstract must/may cache
   domains, for tests only.

   Per cache set, an association list (memory block, age bound) sorted
   by block id; entries whose age reaches the policy's eviction
   threshold leave the state.  This is the textbook Ferdinand-style
   formulation (plus the FIFO and PLRU variants of Ucp_policy) written
   for readability, not speed.  Production runs Ucp_cache.Abstract's
   packed age vectors; the qcheck properties in test_cache.ml check
   that both agree on membership, ages, victims, joins and the domain
   order. *)

module Config = Ucp_cache.Config

type kind = Ucp_policy.kind = Must | May
type aset = (int * int) list

(* Ferdinand-style LRU set update: the accessed block moves to age 0,
   entries younger than its old age (bound) age by one, entries at or
   beyond [assoc] fall out.  Identical for must and may sets. *)
let lru_update_set ~assoc entries mb =
  let old_age = try List.assoc mb entries with Not_found -> assoc in
  let aged =
    List.filter_map
      (fun (x, a) ->
        if x = mb then None
        else
          let a' = if a < old_age then a + 1 else a in
          if a' >= assoc then None else Some (x, a'))
      entries
  in
  List.sort compare ((mb, 0) :: aged)

(* FIFO aging: every other entry grows by one; bounds reaching [assoc]
   are evicted. *)
let fifo_age_others ~assoc entries mb =
  List.filter_map
    (fun (x, a) -> if x = mb || a + 1 >= assoc then None else Some (x, a + 1))
    entries

(* Insert at age 0 without evicting anyone. *)
let insert entries mb =
  List.sort compare ((mb, 0) :: List.filter (fun (x, _) -> x <> mb) entries)

(* Per-set transfer of a demand access.  A prefetch fill has the same
   abstract effect under every policy (a FIFO fill of a resident block
   leaves the queue unchanged, of an absent block inserts it). *)
let aset_update policy kind ~assoc ~(hint : Ucp_policy.hint) entries mb =
  match (policy : Ucp_policy.id) with
  | Ucp_policy.Lru -> lru_update_set ~assoc entries mb
  | Ucp_policy.Fifo -> (
    match (kind, hint) with
    | _, Ucp_policy.Hit -> entries
    | _, Ucp_policy.Miss -> List.sort compare ((mb, 0) :: fifo_age_others ~assoc entries mb)
    | Must, Ucp_policy.Unknown ->
      if List.mem_assoc mb entries then entries
      else List.sort compare (fifo_age_others ~assoc entries mb)
    | May, Ucp_policy.Unknown -> insert entries mb)
  | Ucp_policy.Plru -> (
    match kind with
    | Must -> lru_update_set ~assoc:(Ucp_policy.plru_must_assoc assoc) entries mb
    | May -> insert entries mb)

(* Control-flow join: must = intersection with maximal age bounds, may
   = union with minimal age bounds. *)
let aset_join kind ea eb =
  match kind with
  | Must ->
    List.filter_map
      (fun (x, a) ->
        match List.assoc_opt x eb with Some b -> Some (x, max a b) | None -> None)
      ea
  | May ->
    List.fold_left
      (fun acc (x, b) ->
        match List.assoc_opt x acc with
        | Some a -> (x, min a b) :: List.remove_assoc x acc
        | None -> (x, b) :: acc)
      ea eb
    |> List.sort compare

(* Domain order with [aset_join] as upper bound: [leq a b] iff every
   concrete set state described by [a] is also described by [b].  Must:
   each entry of [b] is in [a] with an age bound no larger.  May: each
   entry of [a] is in [b] with an age lower bound no larger. *)
let aset_leq kind a b =
  match kind with
  | Must ->
    List.for_all
      (fun (x, ab) -> match List.assoc_opt x a with Some aa -> aa <= ab | None -> false)
      b
  | May ->
    List.for_all
      (fun (x, aa) -> match List.assoc_opt x b with Some ab -> ab <= aa | None -> false)
      a

(* ------------------------------------------------------------------ *)
(* whole-cache states: one association list per set, persistent *)

type t = { config : Config.t; kind : kind; policy : Ucp_policy.id; sets : aset array }

let empty ?(policy = Ucp_policy.Lru) config kind =
  { config; kind; policy; sets = Array.make config.Config.sets [] }

let set_idx t mb = Config.set_of_mem_block t.config mb

let update ?(hint = Ucp_policy.Unknown) t mb =
  let sets = Array.copy t.sets in
  let s = set_idx t mb in
  sets.(s) <- aset_update t.policy t.kind ~assoc:t.config.Config.assoc ~hint sets.(s) mb;
  { t with sets }

let fill = update
let join a b = { a with sets = Array.map2 (aset_join a.kind) a.sets b.sets }
let leq a b = Array.for_all2 (aset_leq a.kind) a.sets b.sets
let contains t mb = List.mem_assoc mb t.sets.(set_idx t mb)
let age t mb = List.assoc_opt mb t.sets.(set_idx t mb)
let blocks t = Array.to_list t.sets |> List.concat |> List.map fst |> List.sort compare

(* Blocks [update ?hint t mb] removes from the state, ascending. *)
let victims ?hint t mb =
  let after = update ?hint t mb in
  List.filter_map
    (fun (x, _) -> if x <> mb && not (contains after x) then Some x else None)
    t.sets.(set_idx t mb)
