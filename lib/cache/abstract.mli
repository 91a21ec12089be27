(** Abstract cache states for must/may analysis (Ferdinand-style, the
    classical semantics the paper reuses from [8, 21]), parametric in
    the replacement policy (see {!Ucp_policy}; default LRU, for which
    the domains are bit-identical to the seed's LRU-only analyses).

    A state maps each resident memory block to an {e age bound}:

    - {b Must}: the age is an {e upper} bound — the block is guaranteed
      to be cached with at most that age.  Join is intersection with
      maximal ages.  A reference to a block present in the must state is
      an {e always-hit}.
    - {b May}: the age is a {e lower} bound — the block might be cached,
      never younger than that age.  Join is union with minimal ages.  A
      reference to a block absent from the may state is an
      {e always-miss}.

    The one representation is the cacheaudit-style packed age vector:
    one int array over the program's memory-block universe, absence
    encoded by saturation at the policy's eviction threshold.  The
    test suite carries an executable per-set association-list
    reference semantics and checks these domains against it.

    States are immutable except through {!update_ip} and {!fill_ip},
    which mutate a private {!copy}: {!update_ip} implements the
    abstract update Û of the selected policy, and {!fill_ip} the
    prefetch-extended semantics in which a block is installed without
    a demand access (as in the prefetching extension of the abstract
    semantics [22]).  Policies whose aging depends on the access
    outcome (FIFO) additionally take a classification [?hint] for the
    transferred access; [Unknown] is always sound and LRU/PLRU ignore
    hints entirely. *)

type kind = Ucp_policy.kind = Must | May

type t

val empty :
  ?policy:Ucp_policy.id -> base:int -> universe:int -> Config.t -> kind -> t
(** Cold cache over the memory blocks [\[base, base + universe)]:
    nothing resident.  For must analysis this is also the sound "no
    guarantees" element used at unknown program points.  [base] keeps
    the vector dense — code blocks sit near the layout's anchor
    address, so the array spans the program's id range, not the
    address space.  All states flowing into {!join}, {!leq} or
    {!equal} together must share one universe; operations on blocks
    outside it raise [Invalid_argument].
    @raise Invalid_argument if [universe < 1] or the policy rejects the
    configuration's associativity (PLRU requires a power of two). *)

val kind : t -> kind
val config : t -> Config.t

val policy : t -> Ucp_policy.id
(** The replacement policy this state models. *)

val copy : t -> t
(** Independent deep copy, for use with the destructive variants
    below: mutations of the copy never alias the original. *)

val update_ip : ?hint:Ucp_policy.hint -> t -> int -> unit
(** Abstract update for a demand reference to a memory block, in
    place.  [?hint] (default [Unknown]) is the classification of this
    very access, when the caller knows it.  Only apply to states
    obtained from {!copy} that no other holder can observe — one copy
    per node transfer instead of one allocation per instruction
    slot. *)

val fill_ip : ?hint:Ucp_policy.hint -> t -> int -> unit
(** Abstract effect of a completed prefetch of a memory block, in
    place; [?hint] says whether the block is known resident ([Hit]),
    known absent ([Miss]) or unknown.  Same ownership contract as
    {!update_ip}. *)

val join : t -> t -> t
(** Must: intersection/max-age.  May: union/min-age.
    @raise Invalid_argument when kinds, configurations, policies or
    universes differ. *)

val leq : t -> t -> bool
(** Domain order with {!join} as an upper bound: [leq a b] iff every
    concrete cache described by [a] is also described by [b].
    @raise Invalid_argument when kinds, configurations, policies or
    universes differ. *)

val contains : t -> int -> bool
(** Membership in the abstract state (guaranteed for must, possible for
    may). *)

val age : t -> int -> int option
(** Age bound of a block, if resident. *)

val blocks : t -> int list
(** Resident blocks, ascending (the paper's [B(ĉ)], Definition 9). *)

val victims : ?hint:Ucp_policy.hint -> t -> int -> int list
(** [victims t mb] lists, ascending, the blocks that [update_ip t mb]
    (under the same hint) would remove from the state — for must
    analysis, the references that lose their cached guarantee.  This
    implements the replacement detection of Property 3 that drives
    prefetch-candidate discovery, and asks the policy domain who can be
    evicted.  [t] is not modified; the cost is proportional to the
    accessed set's share of the universe. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
