(** Instruction-cache configurations.

    The paper's experiments sweep 36 configurations (Table 2), denoted
    [k = (a, b, c)]: associativity [a], block (line) size [b] bytes,
    capacity [c] bytes. *)

type t = private {
  assoc : int;  (** ways per set *)
  block_bytes : int;  (** bytes per cache block / memory block *)
  capacity : int;  (** total bytes *)
  sets : int;  (** derived: [capacity / (assoc * block_bytes)] *)
}

val make : assoc:int -> block_bytes:int -> capacity:int -> t
(** @raise Invalid_argument unless all parameters are positive,
    [block_bytes] is a multiple of the instruction size, and
    [assoc * block_bytes] divides [capacity]. *)

val set_of_mem_block : t -> int -> int
(** Cache set index of a memory block (modulo mapping). *)

val paper_configs : (string * t) list
(** The 36 configurations of Table 2, labelled ["k1"] .. ["k36"]. *)

val id : t -> string
(** Short label, e.g. ["(2,16,1024)"]. *)

val half_capacity : t -> t option
(** Same associativity and block size with capacity halved, when that
    still yields at least one set (used by the Figure 5 experiment). *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
