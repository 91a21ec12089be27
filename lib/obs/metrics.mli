(** Thread-safe metrics registry: named monotone counters (int and
    float), gauges, and fixed-bucket histograms.

    Instruments are created (idempotently) by name under a registry
    lock; the hot-path operations — {!add}, {!fadd}, {!set},
    {!observe} — are lock-free atomics.  The whole registry is gated by
    one flag: while {e disabled} (the default) every operation is a
    no-op after a single [Atomic.get], so instrumented code costs
    nothing measurable in an untraced run and records nothing at all.

    Counter adds use [Atomic.fetch_and_add] and histogram buckets are
    individual atomics, so counts are exact under any number of
    concurrently updating domains — no torn or lost increments. *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

type counter
type fcounter
type gauge
type histogram

val counter : string -> counter
(** Find-or-create the named int counter.  Safe to call at the use site
    from any domain or thread: concurrent first uses register one
    instrument.
    @raise Invalid_argument if the name is registered as another kind. *)

val fcounter : string -> fcounter
val gauge : string -> gauge

val histogram : string -> buckets:float array -> histogram
(** [buckets] are inclusive upper bounds, strictly increasing; an
    implicit overflow bucket catches larger observations.
    @raise Invalid_argument on empty/unsorted buckets, or if the name
    is already registered with different buckets. *)

val add : counter -> int -> unit
val incr : counter -> unit
val fadd : fcounter -> float -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

(** {2 Reading} *)

type value =
  | Counter of int
  | Fcounter of float
  | Gauge of float
  | Histogram of {
      bounds : float array;
      counts : int array;  (** per bucket; one longer than [bounds] *)
      sum : float;
      count : int;
    }

val dump : unit -> (string * value) list
(** Snapshot of every registered instrument, sorted by name. *)

val find : string -> value option

val reset : unit -> unit
(** Zero every registered instrument (registration survives). *)
