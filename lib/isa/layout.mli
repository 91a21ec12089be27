(** End-anchored address layout and memory-block mapping.

    Blocks are laid out consecutively in block-id order.  The layout is
    anchored at the {e end} of the program: the final instruction always
    occupies the slot just below [end_addr].  Inserting an instruction
    therefore relocates every instruction {e before} the insertion point
    (their addresses drop by 4) and leaves everything after it in place
    — exactly the relocation discipline behind the paper's [rcost]
    (Equation 8), where only "references preceding r{_i} in the address
    space" move. *)

type t

val end_addr : int
(** The fixed anchor address (a multiple of every supported memory-block
    size). *)

val make : Program.t -> block_bytes:int -> t
(** Compute the layout of a program for a given memory-block size.
    @raise Invalid_argument if [block_bytes] is not a positive multiple
    of {!Instr.bytes}. *)

val program : t -> Program.t
val block_bytes : t -> int

val addr : t -> block:int -> pos:int -> int
(** Byte address of an instruction slot.
    @raise Invalid_argument on a nonexistent slot. *)

val mem_block : t -> block:int -> pos:int -> int
(** [S(r)]: id of the memory block holding the slot. *)

val mem_block_of_addr : t -> int -> int
(** Memory block id of a byte address. *)

val addr_of_uid : t -> int -> int option
(** Address of the instruction with the given uid, if present.  O(1):
    {!make} indexes every uid while it walks the slots, so this never
    scans the program ({!Program.find_uid} followed by {!addr} is the
    slow equivalent). *)

val mem_block_of_uid : t -> int -> int option
(** [S(r)] looked up by uid, O(1) like {!addr_of_uid}. *)

(** What the instruction in a slot prefetches. *)
type target =
  | Not_prefetch  (** an ordinary instruction or a terminator *)
  | Target of int  (** a prefetch loading this memory block *)
  | Unresolved of int
      (** a prefetch whose target uid (the payload) is not in the
          program — e.g. its target was itself a removed prefetch.
          Each consumer keeps its own reaction: the analysis rejects
          it, the simulator fails when it executes, the exact
          refinement skips it. *)

val prefetch_target : t -> block:int -> pos:int -> target
(** The layout is the single owner of slot → prefetch-target
    resolution: {!make} resolves every prefetch once, and this is an
    array read — the fixpoint, product exploration and simulator hot
    loops call it per slot instead of looking the target uid up.
    @raise Invalid_argument on a nonexistent slot. *)

val first_slot_of_mem_block : t -> int -> (int * int) option
(** [R(s)]: the [(block, pos)] of the lowest-addressed instruction
    stored in memory block [s], or [None] if [s] holds no code. *)

val slots_of_mem_block : t -> int -> (int * int) list
(** All instruction slots residing in a memory block, in address order. *)

val mem_block_ids : t -> int list
(** All memory blocks containing at least one instruction, ascending. *)

val code_mem_blocks : t -> int
(** Number of distinct memory blocks occupied by the program. *)
