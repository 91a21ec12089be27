(** Helpers of the benchmark harness: the clock, the seeded draws, exact
    quantiles, the Zipf sampler, the open-loop backlog rule, and the
    span recorder behind the traced run.  Pure apart from the clock, so
    the self-tests pin each of them on hand-computed inputs. *)

val now : unit -> float
(** Monotonic clock, seconds.  Every duration the benchmark reports is a
    difference of two readings of this clock. *)

(** {2 Seeded draws} *)

val permute : seed:int -> salt:int -> 'a list -> 'a list
(** Fisher-Yates permutation driven by {!Ucp_util.Rng}; the same
    [(seed, salt, list)] always gives the same order. *)

(** {2 Exact statistics} *)

val quantile : float -> float list -> float
(** [quantile q xs], [q] in [\[0,1\]]: nearest-rank quantile of the raw
    samples ({!Ucp_util.Stats.percentile}), always one of the samples;
    [nan] on no samples. *)

val mean : float list -> float

(** {2 Zipf sampler} *)

type zipf

val zipf : n:int -> s:float -> zipf
(** Ranks [0 .. n-1] with probability proportional to [1 / (rank+1)^s].
    @raise Invalid_argument if [n < 1] or [s < 0]. *)

val zipf_draw : zipf -> Ucp_util.Rng.t -> int
val zipf_prob : zipf -> int -> float

(** {2 Open-loop backlog rule} *)

val backlog_at : due:float array -> finish:float array -> float -> int
(** Requests due at or before the instant and not finished by it. *)

val rung_passes :
  rate:float -> limit_s:float -> due:float array -> finish:float array -> bool
(** A rung of the rate ladder passes iff the p99 of [finish - due]
    (a failed or shed request carries [finish = infinity]) is at most
    [limit_s], and when the rung's last request falls due at most
    [ceil (rate *. limit_s)] requests are outstanding — more than the
    limit allows at that rate means the queue is growing. *)

(** {2 Spans} *)

type span = {
  sp_id : int;
  sp_parent : int;  (** 0 for a root span *)
  sp_name : string;
  sp_key : string;  (** case id (or request trace id) the span belongs to *)
  sp_tid : int;
  sp_start : float;  (** {!now} seconds *)
  sp_stop : float;
  sp_args : (string * int) list;
}

type recorder
(** Collects the spans of one case (or request); not shared between
    domains. *)

val recorder : key:string -> id_base:int -> recorder

val span :
  recorder -> ?parent:int -> ?args:(unit -> (string * int) list) -> string ->
  (int -> 'a) -> 'a
(** [span r ~parent name f] times [f id] as a span with a fresh [id]
    (pass it as [~parent] to nested spans).  [args] is evaluated after
    [f] returns, so it can read counters [f] filled in. *)

val spans : recorder -> span list

val self_times : span list -> (span * float) list
(** Each span with its self time: duration minus the part of its
    interval covered by the union of its children's intervals. *)

val chrome_json : t0:float -> span list -> string
(** Chrome trace_event JSON (complete ["X"] events, microseconds from
    [t0]) with [id], [parent], [self_us] and the span's own args —
    the format [ucp trace FILE] reads. *)

(** {2 Record lines} *)

val mask_audit_s : string -> string
(** An audited record line carries the audit's own wall-clock
    ([,"audit_s":0.123]); digests and the traced comparison replace that
    one value by [_].  Other lines are returned unchanged. *)

(** {2 Result line} *)

type metric = { m_name : string; m_value : float; m_unit : string; m_n : int }

val result_json :
  correct:bool -> attempted:int -> failed:int -> metric list -> string
(** The final stdout line: exactly [correct], [attempted], [failed] and
    [metrics] (name -> [{value, unit}]). *)
