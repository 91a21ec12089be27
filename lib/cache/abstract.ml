type kind = Ucp_policy.kind = Must | May

(* Cacheaudit-style packed age vector: one int array over the
   memory-block universe, [ages.(mb - base)] the block's age bound with
   absence encoded as the saturation value [cap] (the policy's
   [flat_cap]).  [base] makes the indexing dense: code memory blocks sit
   near the layout's anchor address (ids around 2{^20}), so the vector
   covers only the program's own id range, not the whole address space.
   [members.(s)] lists the universe {e offsets} mapping to cache set [s]
   (shared, immutable).  Joins and the domain order are pointwise
   max/min and comparisons; updates touch only the accessed block's set
   members.

   The per-set transfer functions live in Ucp_policy and are dispatched
   through the policy's first-class module. *)
type t = {
  config : Config.t;
  kind : kind;
  policy : Ucp_policy.id;
  pol : (module Ucp_policy.POLICY);
  cap : int;
  base : int;
  ages : int array;
  members : int array array;
}

let empty ?(policy = Ucp_policy.Lru) ~base ~universe config kind =
  Ucp_policy.check_assoc policy ~assoc:config.Config.assoc;
  if universe < 1 then invalid_arg "Abstract.empty: empty universe";
  let pol = Ucp_policy.find policy in
  let module P = (val pol : Ucp_policy.POLICY) in
  let cap = P.flat_cap kind ~assoc:config.Config.assoc in
  let member_lists = Array.make config.Config.sets [] in
  (* set membership follows the *raw* block id (the hardware indexes on
     addresses); the stored member entries are universe offsets because
     that is what the fset transfers index [ages] with *)
  for idx = universe - 1 downto 0 do
    let s = Config.set_of_mem_block config (base + idx) in
    member_lists.(s) <- idx :: member_lists.(s)
  done;
  {
    config;
    kind;
    policy;
    pol;
    cap;
    base;
    ages = Array.make universe cap;
    members = Array.map Array.of_list member_lists;
  }

let kind t = t.kind
let config t = t.config
let policy t = t.policy

(* offset of a raw block id into the packed vector *)
let offset t mb =
  let idx = mb - t.base in
  if idx < 0 || idx >= Array.length t.ages then
    invalid_arg
      (Printf.sprintf "Abstract: memory block %d outside the universe [%d,%d)" mb
         t.base
         (t.base + Array.length t.ages));
  idx

let set_members t mb = t.members.(Config.set_of_mem_block t.config mb)

(* [copy] takes the one defensive copy, then [update_ip]/[fill_ip]
   mutate it through a whole node transfer — one allocation per node
   instead of one per instruction slot. *)
let copy t = { t with ages = Array.copy t.ages }

let apply_ip op ?(hint = Ucp_policy.Unknown) t mb =
  let module P = (val t.pol : Ucp_policy.POLICY) in
  let idx = offset t mb in
  let f = match op with `Update -> P.fset_update | `Fill -> P.fset_fill in
  f t.kind ~assoc:t.config.Config.assoc ~hint ~ages:t.ages ~members:(set_members t mb)
    idx

let update_ip ?hint t mb = apply_ip `Update ?hint t mb
let fill_ip ?hint t mb = apply_ip `Fill ?hint t mb

let check_compatible op a b =
  if a.kind <> b.kind then invalid_arg (Printf.sprintf "Abstract.%s: kind mismatch" op);
  if not (Config.equal a.config b.config) then
    invalid_arg (Printf.sprintf "Abstract.%s: configuration mismatch" op);
  if a.policy <> b.policy then
    invalid_arg (Printf.sprintf "Abstract.%s: policy mismatch" op);
  if a.base <> b.base || Array.length a.ages <> Array.length b.ages then
    invalid_arg (Printf.sprintf "Abstract.%s: universe mismatch" op)

let join a b =
  check_compatible "join" a b;
  (* must: intersection with maximal age bounds; may: union with
     minimal bounds — both pointwise thanks to the saturation encoding
     of absence *)
  let merge = match a.kind with Must -> max | May -> min in
  { a with ages = Array.map2 merge a.ages b.ages }

let leq a b =
  check_compatible "leq" a b;
  let n = Array.length a.ages in
  let ok i =
    match a.kind with
    | Must -> a.ages.(i) <= b.ages.(i)
    | May -> b.ages.(i) <= a.ages.(i)
  in
  let rec go i = i >= n || (ok i && go (i + 1)) in
  go 0

let contains t mb = t.ages.(offset t mb) < t.cap

let age t mb =
  let a = t.ages.(offset t mb) in
  if a < t.cap then Some a else None

let blocks t =
  let acc = ref [] in
  for idx = Array.length t.ages - 1 downto 0 do
    if t.ages.(idx) < t.cap then acc := (t.base + idx) :: !acc
  done;
  !acc

(* Set-local: the transfer runs on a scratch copy of the accessed set's
   own entries (re-indexed 0..n-1), so a query costs O(set members)
   rather than a copy of the whole universe. *)
let victims ?(hint = Ucp_policy.Unknown) t mb =
  let module P = (val t.pol : Ucp_policy.POLICY) in
  let idx = offset t mb in
  let members = set_members t mb in
  let n = Array.length members in
  let local = Array.map (fun x -> t.ages.(x)) members in
  let rec pos i = if members.(i) = idx then i else pos (i + 1) in
  let self = pos 0 in
  P.fset_update t.kind ~assoc:t.config.Config.assoc ~hint ~ages:local
    ~members:(Array.init n Fun.id) self;
  let acc = ref [] in
  for i = n - 1 downto 0 do
    if i <> self && t.ages.(members.(i)) < t.cap && local.(i) >= t.cap then
      acc := (t.base + members.(i)) :: !acc
  done;
  !acc

let equal a b =
  a.kind = b.kind && a.policy = b.policy
  && Config.equal a.config b.config
  && a.base = b.base && a.ages = b.ages

let pp ppf t =
  Format.fprintf ppf "@[<v>%s cache (%s):@,"
    (match t.kind with Must -> "must" | May -> "may")
    (Ucp_policy.to_string t.policy);
  Array.iteri
    (fun i members ->
      let entries =
        Array.to_list members
        |> List.filter (fun idx -> t.ages.(idx) < t.cap)
      in
      if entries <> [] then begin
        Format.fprintf ppf "  set %d:" i;
        List.iter
          (fun idx -> Format.fprintf ppf " s%d@%d" (t.base + idx) t.ages.(idx))
          entries;
        Format.pp_print_cut ppf ()
      end)
    t.members;
  Format.fprintf ppf "@]"
