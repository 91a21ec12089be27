(* Shared telemetry types.  Lives in its own module so both the pool
   ({!Parallel}) and the renderers ({!Report}) can name them without a
   dependency cycle (Report is already a dependency of Checkpoint,
   which Parallel uses for its journal). *)

(* per-worker telemetry snapshot, indexed by worker *)
type worker_stat = {
  busy_s : float;  (* wall-clock the worker spent inside tasks *)
  tasks : int;  (* pool tasks (work items) it executed *)
  cases : int;  (* work items it executed (the sum of task weights) *)
}
