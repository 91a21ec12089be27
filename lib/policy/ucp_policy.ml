(* Replacement-policy subsystem: concrete per-set updates and sound
   abstract must/may domains for LRU, FIFO and tree-based PLRU.

   This module sits below ucp_cache: everything here operates on a
   single cache set and takes the associativity explicitly.  Set
   indexing, block mapping and whole-cache state live in ucp_cache. *)

type id = Lru | Fifo | Plru
type kind = Must | May
type hint = Hit | Miss | Unknown

let all = [ Lru; Fifo; Plru ]

let to_string = function Lru -> "lru" | Fifo -> "fifo" | Plru -> "plru"

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "lru" -> Ok Lru
  | "fifo" -> Ok Fifo
  | "plru" | "pseudo-lru" -> Ok Plru
  | other -> Error (Printf.sprintf "unknown replacement policy %S" other)

let pp ppf p = Fmt.string ppf (to_string p)

(* Concrete per-set state.  [Order] is a recency/insertion queue,
   youngest first, used by LRU and FIFO.  [Tree] is the PLRU way array
   plus the packed tree bits (internal nodes heap-indexed from 1; bit =
   direction the victim search takes: 0 left, 1 right). *)
type cset = Order of int list | Tree of { ways : int array; bits : int }

(* ---------------------------------------------------------------- *)
(* Shared concrete helpers                                          *)
(* ---------------------------------------------------------------- *)

let cset_contains cs mb =
  match cs with
  | Order l -> List.mem mb l
  | Tree t -> Array.exists (fun w -> w = mb) t.ways

let cset_blocks cs =
  match cs with
  | Order l -> l
  | Tree t -> Array.to_list t.ways |> List.filter (fun w -> w >= 0)

let cset_copy cs =
  match cs with
  | Order l -> Order l
  | Tree t -> Tree { ways = Array.copy t.ways; bits = t.bits }

(* Queue access shared by LRU and FIFO: [reorder] is whether a hit
   moves the block to the front (LRU yes, FIFO no). *)
let order_access ~reorder ~assoc lst mb =
  if List.mem mb lst then
    let lst' = if reorder then mb :: List.filter (fun x -> x <> mb) lst else lst in
    (lst', true, None)
  else if List.length lst < assoc then (mb :: lst, false, None)
  else
    let rec split_last acc = function
      | [] -> assert false
      | [ last ] -> (List.rev acc, last)
      | x :: tl -> split_last (x :: acc) tl
    in
    let kept, victim = split_last [] lst in
    (mb :: kept, false, Some victim)

let order_age lst mb =
  let rec go i = function
    | [] -> None
    | x :: tl -> if x = mb then Some i else go (i + 1) tl
  in
  match lst with [] -> None | l -> go 0 l

(* ---------------------------------------------------------------- *)
(* Flat age-vector helpers (cacheaudit-style packed domains)        *)
(* ---------------------------------------------------------------- *)

(* Ferdinand-style LRU update on the packed representation: ages are
   stored in a whole-universe int array with absence encoded as the
   saturation value [cap]; only the accessed block's set members can
   change.  Entries younger than the accessed block's old age (bound)
   grow by one and saturate at [cap] (eviction); the accessed block
   moves to 0.  Identical for must and may states. *)
let flat_lru_update ~cap ages members mb =
  let old_age = ages.(mb) in
  Array.iter
    (fun x ->
      if x <> mb && ages.(x) < old_age then begin
        let a' = ages.(x) + 1 in
        ages.(x) <- (if a' >= cap then cap else a')
      end)
    members;
  ages.(mb) <- 0

(* FIFO aging: every other resident entry of the set grows by one,
   saturating at [cap] (eviction). *)
let flat_age_others ~cap ages members mb =
  Array.iter
    (fun x ->
      if x <> mb && ages.(x) < cap then begin
        let a' = ages.(x) + 1 in
        ages.(x) <- (if a' >= cap then cap else a')
      end)
    members

(* ---------------------------------------------------------------- *)
(* The policy signature                                             *)
(* ---------------------------------------------------------------- *)

module type POLICY = sig
  val id : id
  val name : string

  val needs_may : bool
  (** Whether the must domain only gains information when definite
      misses are known, so the analysis must co-run the may domain even
      when the caller did not ask for always-miss classification. *)

  val check_assoc : assoc:int -> unit
  (** @raise Invalid_argument if the policy cannot handle [assoc]. *)

  val competitiveness : assoc:int -> (int * int * int) option
  (** Quantitative competitiveness against an LRU reference set
      (Kahlen/Reineke-style): [Some (va, ratio, add)] means every
      per-set reference sequence (cold start, demand accesses only)
      satisfies [misses_policy(assoc) <= ratio * misses_LRU(va) + add].
      [None] when no useful bound exists (LRU itself). *)

  (* Concrete per-set machine *)
  val cset_empty : assoc:int -> cset
  val cset_access : assoc:int -> cset -> int -> cset * bool * int option
  (** [(state', hit, evicted)] after a demand access. *)

  val cset_fill : assoc:int -> cset -> int -> cset * int option
  (** Prefetch fill: like an access, without a hit/miss verdict. *)

  val cset_age : assoc:int -> cset -> int -> int option
  (** Policy-specific replacement age of a resident block (LRU/FIFO:
      queue position; PLRU: tree levels currently pointing at it). *)

  (* Abstract must/may domain on the flat age-vector view: packed
     whole-universe [ages] array, absence encoded as [flat_cap];
     [members] = universe blocks of the accessed block's set.  Mutates
     [ages] in place.  [hint] is the classification of this very access
     (from the analysis): policies whose aging depends on hit/miss
     (FIFO) exploit it; LRU and PLRU ignore it.  Must be sound for
     [Unknown] regardless. *)
  val flat_cap : kind -> assoc:int -> int

  val fset_update :
    kind -> assoc:int -> hint:hint -> ages:int array -> members:int array -> int -> unit

  val fset_fill :
    kind -> assoc:int -> hint:hint -> ages:int array -> members:int array -> int -> unit
end

(* ---------------------------------------------------------------- *)
(* LRU: the seed's Ferdinand domains behind the interface           *)
(* ---------------------------------------------------------------- *)

module Lru_policy : POLICY = struct
  let id = Lru
  let name = "lru"
  let needs_may = false
  let check_assoc ~assoc:_ = ()

  (* LRU is its own reference policy: a competitiveness bound against
     itself adds nothing over the direct must/may analysis. *)
  let competitiveness ~assoc:_ = None
  let cset_empty ~assoc:_ = Order []

  let cset_access ~assoc cs mb =
    match cs with
    | Order l ->
        let l', hit, v = order_access ~reorder:true ~assoc l mb in
        (Order l', hit, v)
    | Tree _ -> invalid_arg "Lru: PLRU tree state"

  let cset_fill ~assoc cs mb =
    let cs', _, v = cset_access ~assoc cs mb in
    (cs', v)

  let cset_age ~assoc:_ cs mb =
    match cs with
    | Order l -> order_age l mb
    | Tree _ -> invalid_arg "Lru: PLRU tree state"

  let flat_cap _kind ~assoc = assoc

  let fset_update _kind ~assoc ~hint:_ ~ages ~members mb =
    flat_lru_update ~cap:assoc ages members mb

  let fset_fill = fset_update
end

(* ---------------------------------------------------------------- *)
(* FIFO: hits do not reorder; aging is miss-driven                  *)
(* ---------------------------------------------------------------- *)

(* Age bounds track the insertion position.  A concrete FIFO set only
   changes on a miss: the new block enters at position 0, every
   resident block's position grows by one, the block at [assoc - 1] is
   evicted.  A hit changes nothing.  The abstract transfer therefore
   branches on the access classification:

   - must (upper bounds): a definite hit leaves the set unchanged; a
     definite miss ages everything and inserts the block at 0; when the
     outcome is unknown we must take the worst of both branches — age
     every other entry (max of "unchanged" and "+1") and do NOT insert
     the accessed block (it enters only on the miss branch).  A block
     already guaranteed resident is a definite hit even under [Unknown].
   - may (lower bounds): a definite hit leaves the set unchanged; a
     definite miss ages every lower bound (a bound reaching [assoc]
     means definitely evicted) and inserts the block at 0; under an
     unknown outcome the union of the two branches keeps every other
     entry at its old bound (min of "unchanged" and "+1") and inserts
     the accessed block at 0 without evicting anyone.

   This is the standard conservative treatment of FIFO's non-LRU aging
   (cf. Grund & Reineke): precision comes only from definite outcomes,
   which is why [needs_may] forces the may domain on. *)
module Fifo_policy : POLICY = struct
  let id = Fifo
  let name = "fifo"
  let needs_may = true
  let check_assoc ~assoc:_ = ()

  (* FIFO is conservative (never evicts on a hit), so the classic
     Sleator-Tarjan argument makes it k-competitive against OPT(k) with
     additive constant k; OPT's misses are bounded by LRU(k)'s, giving
     misses_FIFO(k) <= k * misses_LRU(k) + k per set from cold. *)
  let competitiveness ~assoc = Some (assoc, assoc, assoc)
  let cset_empty ~assoc:_ = Order []

  let cset_access ~assoc cs mb =
    match cs with
    | Order l ->
        let l', hit, v = order_access ~reorder:false ~assoc l mb in
        (Order l', hit, v)
    | Tree _ -> invalid_arg "Fifo: PLRU tree state"

  let cset_fill ~assoc cs mb =
    let cs', _, v = cset_access ~assoc cs mb in
    (cs', v)

  let cset_age ~assoc:_ cs mb =
    match cs with
    | Order l -> order_age l mb
    | Tree _ -> invalid_arg "Fifo: PLRU tree state"

  let flat_cap _kind ~assoc = assoc

  let fset_update kind ~assoc ~hint ~ages ~members mb =
    let cap = assoc in
    match (kind, hint) with
    | _, Hit -> ()
    | _, Miss ->
      flat_age_others ~cap ages members mb;
      ages.(mb) <- 0
    | Must, Unknown -> if ages.(mb) >= cap then flat_age_others ~cap ages members mb
    | May, Unknown -> ages.(mb) <- 0

  (* A fill of a resident block leaves a FIFO queue unchanged and a
     fill of an absent block inserts it, exactly like an access. *)
  let fset_fill = fset_update
end

(* ---------------------------------------------------------------- *)
(* PLRU: tree-based pseudo-LRU for power-of-two associativity       *)
(* ---------------------------------------------------------------- *)

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* In a [k]-way tree-PLRU set the [log2 k + 1] most recently accessed
   pairwise-distinct blocks are guaranteed resident (Reineke/Grund's
   relative-competitiveness bound, the classic aiT treatment).  The
   must domain is therefore the LRU must domain run at this reduced
   effective associativity. *)
let plru_must_assoc assoc = log2 assoc + 1

module Plru_policy : POLICY = struct
  let id = Plru
  let name = "plru"
  let needs_may = false

  let check_assoc ~assoc =
    if not (is_pow2 assoc) then
      invalid_arg
        (Printf.sprintf "Plru: associativity %d is not a power of two" assoc)

  (* The log2 k + 1 most recently used distinct blocks of a k-way
     tree-PLRU set are resident (Reineke/Grund), so every PLRU miss is
     an LRU(log2 k + 1) miss: 1-competitive, no additive constant. *)
  let competitiveness ~assoc = Some (plru_must_assoc assoc, 1, 0)

  let cset_empty ~assoc = Tree { ways = Array.make assoc (-1); bits = 0 }

  let find_way ways mb =
    let n = Array.length ways in
    let rec go w = if w >= n then None else if ways.(w) = mb then Some w else go (w + 1) in
    go 0

  (* Point every internal node on the path to way [w] away from it. *)
  let touch ~assoc bits w =
    let d = log2 assoc in
    let bits = ref bits and i = ref 1 in
    for j = d - 1 downto 0 do
      let wbit = (w lsr j) land 1 in
      (bits := if wbit = 0 then !bits lor (1 lsl !i) else !bits land lnot (1 lsl !i));
      i := (2 * !i) + wbit
    done;
    !bits

  (* Victim selection: an invalid way first (lowest index), otherwise
     follow the tree bits from the root. *)
  let victim_way ~assoc ways bits =
    let rec invalid w =
      if w >= assoc then None else if ways.(w) < 0 then Some w else invalid (w + 1)
    in
    match invalid 0 with
    | Some w -> w
    | None ->
        let d = log2 assoc in
        let i = ref 1 in
        for _ = 1 to d do
          i := (2 * !i) + ((bits lsr !i) land 1)
        done;
        !i - assoc

  let cset_access ~assoc cs mb =
    match cs with
    | Tree t -> (
        match find_way t.ways mb with
        | Some w -> (Tree { t with bits = touch ~assoc t.bits w }, true, None)
        | None ->
            let v = victim_way ~assoc t.ways t.bits in
            let victim = if t.ways.(v) < 0 then None else Some t.ways.(v) in
            let ways = Array.copy t.ways in
            ways.(v) <- mb;
            (Tree { ways; bits = touch ~assoc t.bits v }, false, victim))
    | Order _ -> invalid_arg "Plru: queue state"

  let cset_fill ~assoc cs mb =
    let cs', _, v = cset_access ~assoc cs mb in
    (cs', v)

  (* "Age" of a resident block: how many tree levels on its path point
     toward it — 0 means fully protected, [log2 assoc] means it is the
     next victim. *)
  let cset_age ~assoc cs mb =
    match cs with
    | Tree t -> (
        match find_way t.ways mb with
        | None -> None
        | Some w ->
            let d = log2 assoc in
            let n = ref 0 and i = ref 1 in
            for j = d - 1 downto 0 do
              let wbit = (w lsr j) land 1 in
              if (t.bits lsr !i) land 1 = wbit then incr n;
              i := (2 * !i) + wbit
            done;
            Some !n)
    | Order _ -> invalid_arg "Plru: queue state"

  (* Must: LRU domain at the reduced effective associativity.  May:
     PLRU gives no useful eviction bound (an unaccessed block can
     survive arbitrarily many misses), so the may domain only records
     which blocks were ever possibly inserted and never evicts —
     always-miss holds exactly for blocks that cannot be resident. *)
  let flat_cap kind ~assoc =
    match kind with Must -> plru_must_assoc assoc | May -> assoc

  let fset_update kind ~assoc ~hint:_ ~ages ~members mb =
    match kind with
    | Must -> flat_lru_update ~cap:(plru_must_assoc assoc) ages members mb
    | May -> ages.(mb) <- 0

  let fset_fill = fset_update
end

(* ---------------------------------------------------------------- *)
(* Dispatch                                                         *)
(* ---------------------------------------------------------------- *)

let find : id -> (module POLICY) = function
  | Lru -> (module Lru_policy)
  | Fifo -> (module Fifo_policy)
  | Plru -> (module Plru_policy)

let needs_may p =
  let (module P) = find p in
  P.needs_may

let check_assoc p ~assoc =
  let (module P) = find p in
  P.check_assoc ~assoc

let competitiveness p ~assoc =
  let (module P) = find p in
  P.competitiveness ~assoc
