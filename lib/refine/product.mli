(** Per-set exact reachability: the product of the VIVU-expanded graph
    with the concrete cache automaton of one cache set (Touzeau-style
    focused collapse — the policies are set-partitioned, so the
    automaton only tracks the focus set's state). *)

type projection
(** One cache set's view of the program: every basic block projected
    onto its same-set events — the demand access of a slot whose memory
    block maps to the set, or the fill of a prefetch whose (resolved)
    target does — in slot order, demand access before the slot's fill,
    each tagged with its slot [pos].  Slots touching other sets cannot
    change the tracked state, so the product threads states through
    these events only; a block with none leaves the state unchanged.
    Prefetch targets come from {!Ucp_isa.Layout.prefetch_target};
    unresolved ones are skipped. *)

type r = {
  per_node : Ucp_policy.cset list array;
      (** reachable in-states per expanded node, in discovery order *)
  visited : int;  (** total (node, state) product pairs discovered *)
  exhausted : bool;
      (** the state budget cut the sweep short — [per_node] is partial
          and must not be used for verdicts *)
  projection : projection;
      (** the projection the sweep threaded states through, for
          replaying in-states with {!transfer} *)
}

val default_budget : int
(** Default per-set cap on product pairs (32768). *)

val transfer :
  (module Ucp_policy.POLICY) ->
  assoc:int ->
  projection ->
  ?on_access:(pos:int -> hit:bool -> unit) ->
  block:int ->
  Ucp_policy.cset ->
  Ucp_policy.cset
(** Thread one set's state through a basic block's projected events
    (demand access first, then the slot's prefetch fill — the same
    order as [Analysis.transfer] and the simulator).  [on_access]
    observes the hit verdict of every same-set demand access, with its
    slot [pos]. *)

val reachable :
  ?deadline:Ucp_util.Deadline.t ->
  ?budget:int ->
  policy:Ucp_policy.id ->
  set:int ->
  Ucp_cfg.Vivu.t ->
  Ucp_isa.Layout.t ->
  Ucp_cache.Config.t ->
  r
(** Breadth-first product sweep from a cold entry along DAG and
    iteration edges — exactly the walk set the abstract fixpoint
    over-approximates.  Projects the program onto [set] once, then
    transfers through the projection.  Deterministic, including where
    the [budget] cuts it short.
    @raise Ucp_util.Deadline.Deadline_exceeded if [?deadline] passes
    (checked every 256 expansions). *)
