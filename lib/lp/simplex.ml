module Q = Rational

type op = Le | Ge | Eq

type problem = {
  num_vars : int;
  objective : Q.t array;
  constraints : (Q.t array * op * Q.t) list;
}

type solution = { value : Q.t; assignment : Q.t array; dual : Q.t array }

type outcome =
  | Optimal of solution
  | Infeasible
  | Unbounded

type tableau = {
  rows : Q.t array array;  (* m x (cols + 1); last column is the rhs *)
  basis : int array;  (* basic variable of each row *)
  cols : int;  (* number of variable columns *)
}

let pivot t z ~row ~col =
  let piv = t.rows.(row).(col) in
  assert (Q.sign piv <> 0);
  let r = t.rows.(row) in
  for j = 0 to t.cols do
    r.(j) <- Q.div r.(j) piv
  done;
  let eliminate target =
    let f = target.(col) in
    if Q.sign f <> 0 then
      for j = 0 to t.cols do
        target.(j) <- Q.sub target.(j) (Q.mul f r.(j))
      done
  in
  Array.iteri (fun i row_i -> if i <> row then eliminate row_i) t.rows;
  eliminate z;
  t.basis.(row) <- col

(* How many pivots between deadline checks: a pivot over a few hundred
   columns of rationals costs microseconds, so 64 bounds the overrun to
   well under a millisecond while keeping the clock off the hot path. *)
let pivots_per_deadline_check = 64

(* Bland's rule: entering column = lowest-index eligible column with a
   positive reduced cost; leaving row = lexicographically by minimum
   ratio then lowest basic-variable index. *)
let run ?deadline ~pivots t z ~allowed =
  let m = Array.length t.rows in
  let rec step () =
    incr pivots;
    if !pivots mod pivots_per_deadline_check = 0 then
      Ucp_util.Deadline.check deadline;
    let entering = ref (-1) in
    (try
       for j = 0 to t.cols - 1 do
         if allowed j && Q.sign z.(j) > 0 then begin
           entering := j;
           raise Exit
         end
       done
     with Exit -> ());
    if !entering = -1 then `Optimal
    else begin
      let col = !entering in
      let best = ref None in
      for i = 0 to m - 1 do
        let a = t.rows.(i).(col) in
        if Q.sign a > 0 then begin
          let ratio = Q.div t.rows.(i).(t.cols) a in
          match !best with
          | None -> best := Some (ratio, i)
          | Some (r, bi) ->
            let c = Q.compare ratio r in
            if c < 0 || (c = 0 && t.basis.(i) < t.basis.(bi)) then best := Some (ratio, i)
        end
      done;
      match !best with
      | None -> `Unbounded
      | Some (_, row) ->
        pivot t z ~row ~col;
        step ()
    end
  in
  step ()

let build problem =
  let n = problem.num_vars in
  if Array.length problem.objective <> n then
    invalid_arg "Simplex: objective length mismatch";
  List.iter
    (fun (coeffs, _, _) ->
      if Array.length coeffs <> n then invalid_arg "Simplex: constraint length mismatch")
    problem.constraints;
  (* Normalize rows to nonnegative rhs, remembering which rows were
     negated so dual values can be mapped back to the original rows. *)
  let rows =
    List.map
      (fun (coeffs, op, rhs) ->
        if Q.sign rhs < 0 then
          ( Array.map Q.neg coeffs,
            (match op with Le -> Ge | Ge -> Le | Eq -> Eq),
            Q.neg rhs,
            true )
        else (Array.copy coeffs, op, rhs, false))
      problem.constraints
  in
  let m = List.length rows in
  let n_slack = List.length (List.filter (fun (_, op, _, _) -> op <> Eq) rows) in
  let n_art = List.length (List.filter (fun (_, op, _, _) -> op <> Le) rows) in
  let cols = n + n_slack + n_art in
  let art_start = n + n_slack in
  let tab = Array.init m (fun _ -> Array.make (cols + 1) Q.zero) in
  let basis = Array.make m (-1) in
  (* Per original constraint: the column whose constraint-matrix column
     is exactly the unit vector e_i (the Le slack, or the artificial for
     Ge/Eq rows), plus whether normalization negated the row.  The
     phase-2 reduced cost of that column is -y_i for the simplex
     multipliers y = c_B B^-1, which is exactly the dual solution. *)
  let dual_cols = Array.make m (-1, false) in
  let slack = ref n and art = ref art_start in
  List.iteri
    (fun i (coeffs, op, rhs, flipped) ->
      Array.blit coeffs 0 tab.(i) 0 n;
      tab.(i).(cols) <- rhs;
      (match op with
      | Le ->
        tab.(i).(!slack) <- Q.one;
        basis.(i) <- !slack;
        dual_cols.(i) <- (!slack, flipped);
        incr slack
      | Ge ->
        tab.(i).(!slack) <- Q.neg Q.one;
        incr slack;
        tab.(i).(!art) <- Q.one;
        basis.(i) <- !art;
        dual_cols.(i) <- (!art, flipped);
        incr art
      | Eq ->
        tab.(i).(!art) <- Q.one;
        basis.(i) <- !art;
        dual_cols.(i) <- (!art, flipped);
        incr art))
    rows;
  ({ rows = tab; basis; cols }, art_start, dual_cols)

(* Reduced-cost row for objective [c] (over variable columns) given the
   current basis: z = c - sum over rows of c_basic * row.  The cell
   z.(cols) then holds minus the objective value. *)
let make_z t c =
  let z = Array.make (t.cols + 1) Q.zero in
  Array.blit c 0 z 0 (Array.length c);
  Array.iteri
    (fun i b ->
      let cb = if b < Array.length c then c.(b) else Q.zero in
      if Q.sign cb <> 0 then
        for j = 0 to t.cols do
          z.(j) <- Q.sub z.(j) (Q.mul cb t.rows.(i).(j))
        done)
    t.basis;
  z

let pivots_total () = Ucp_obs.Metrics.counter "simplex_pivots_total"

let maximize ?deadline problem =
  Ucp_obs.Trace.with_span ~name:"simplex" (fun () ->
      let pivots = ref 0 in
      (* Record the pivot count even when a deadline fires mid-solve, so
         the metric and the trace args agree under timeouts too. *)
      Fun.protect
        ~finally:(fun () ->
          Ucp_obs.Trace.set_arg "pivots" (Ucp_obs.Trace.Int !pivots);
          Ucp_obs.Metrics.add (pivots_total ()) !pivots)
        (fun () ->
          let t, art_start, dual_cols = build problem in
          let m = Array.length t.rows in
          (* Phase 1: maximize -(sum of artificials). *)
          let phase1_obj = Array.make t.cols Q.zero in
          for j = art_start to t.cols - 1 do
            phase1_obj.(j) <- Q.neg Q.one
          done;
          let z1 = make_z t phase1_obj in
          (match run ?deadline ~pivots t z1 ~allowed:(fun _ -> true) with
          | `Unbounded -> assert false (* phase-1 objective is bounded above by 0 *)
          | `Optimal -> ());
          let phase1_value = Q.neg z1.(t.cols) in
          if Q.sign phase1_value < 0 then Infeasible
          else begin
            (* Drive any remaining (zero-valued) artificials out of the basis
               where possible; rows where it is impossible are redundant. *)
            for i = 0 to m - 1 do
              if t.basis.(i) >= art_start then begin
                let j = ref 0 and found = ref false in
                while (not !found) && !j < art_start do
                  if Q.sign t.rows.(i).(!j) <> 0 then found := true else incr j
                done;
                if !found then pivot t (Array.make (t.cols + 1) Q.zero) ~row:i ~col:!j
              end
            done;
            (* Phase 2: the real objective; artificial columns may not enter. *)
            let phase2_obj = Array.make t.cols Q.zero in
            Array.blit problem.objective 0 phase2_obj 0 problem.num_vars;
            let z2 = make_z t phase2_obj in
            match run ?deadline ~pivots t z2 ~allowed:(fun j -> j < art_start) with
            | `Unbounded -> Unbounded
            | `Optimal ->
              let assignment = Array.make problem.num_vars Q.zero in
              Array.iteri
                (fun i b ->
                  if b < problem.num_vars then assignment.(b) <- t.rows.(i).(t.cols))
                t.basis;
              (* Dual solution: y_i = -z2 at row i's unit column (see [build]);
                 rows negated during normalization negate back. *)
              let dual =
                Array.map
                  (fun (col, flipped) ->
                    let y = Q.neg z2.(col) in
                    if flipped then Q.neg y else y)
                  dual_cols
              in
              Optimal { value = Q.neg z2.(t.cols); assignment; dual }
          end))

let minimize ?deadline problem =
  let neg = { problem with objective = Array.map Q.neg problem.objective } in
  match maximize ?deadline neg with
  | Optimal { value; assignment; dual } ->
    Optimal { value = Q.neg value; assignment; dual = Array.map Q.neg dual }
  | (Infeasible | Unbounded) as o -> o

(* ------------------------------------------------------------------ *)
(* Direct certificate checking: the stored primal/dual pair is verified
   by linear passes over the problem data — no pivots, no re-solve.
   This is the trusted half of the audit's LP fast path; [maximize] /
   [minimize] only ever act as untrusted certificate producers. *)

let ( let* ) = Result.bind

let cert_fail obligation fmt =
  Printf.ksprintf (fun s -> Error (obligation ^ ": " ^ s)) fmt

let q_to_string v = Format.asprintf "%a" Q.pp v

let dot coeffs x =
  let acc = ref Q.zero in
  Array.iteri (fun j c -> acc := Q.add !acc (Q.mul c x.(j))) coeffs;
  !acc

let check_certificate ?(minimize = false) problem (sol : solution) =
  (* A minimization answer is the negated-objective maximization answer
     with value and duals negated back; undo that and check the
     canonical maximize conditions. *)
  let problem, sol =
    if minimize then
      ( { problem with objective = Array.map Q.neg problem.objective },
        { sol with value = Q.neg sol.value; dual = Array.map Q.neg sol.dual } )
    else (problem, sol)
  in
  let { value; assignment; dual } = sol in
  let n = problem.num_vars in
  let rows = Array.of_list problem.constraints in
  let m = Array.length rows in
  let* () =
    if Array.length assignment <> n then
      cert_fail "lp-shape" "assignment has %d entries, want %d"
        (Array.length assignment) n
    else if Array.length dual <> m then
      cert_fail "lp-shape" "dual has %d entries, want %d rows" (Array.length dual) m
    else Ok ()
  in
  (* Primal feasibility: x >= 0 and every row satisfied, exactly. *)
  let* () =
    let bad = ref None in
    Array.iteri (fun j x -> if !bad = None && Q.sign x < 0 then bad := Some j) assignment;
    match !bad with
    | Some j ->
      cert_fail "lp-primal-feasible" "x_%d = %s < 0" j (q_to_string assignment.(j))
    | None ->
      let row_err = ref None in
      Array.iteri
        (fun i (coeffs, op, rhs) ->
          if !row_err = None then begin
            let lhs = dot coeffs assignment in
            let ok =
              match op with
              | Le -> Q.compare lhs rhs <= 0
              | Ge -> Q.compare lhs rhs >= 0
              | Eq -> Q.equal lhs rhs
            in
            if not ok then row_err := Some (i, lhs, rhs)
          end)
        rows;
      (match !row_err with
      | Some (i, lhs, rhs) ->
        cert_fail "lp-primal-feasible" "row %d violated: lhs %s vs rhs %s" i
          (q_to_string lhs) (q_to_string rhs)
      | None -> Ok ())
  in
  (* Dual sign conditions: y_i >= 0 for Le rows, y_i <= 0 for Ge rows,
     free for Eq rows. *)
  let* () =
    let bad = ref None in
    Array.iteri
      (fun i (_, op, _) ->
        if !bad = None then
          match op with
          | Le when Q.sign dual.(i) < 0 -> bad := Some (i, ">=")
          | Ge when Q.sign dual.(i) > 0 -> bad := Some (i, "<=")
          | _ -> ())
      rows;
    match !bad with
    | Some (i, want) ->
      cert_fail "lp-dual-sign" "y_%d = %s violates y %s 0" i (q_to_string dual.(i)) want
    | None -> Ok ()
  in
  (* Dual feasibility: (A^T y)_j >= c_j for every variable. *)
  let* () =
    let bad = ref None in
    for j = 0 to n - 1 do
      if !bad = None then begin
        let aty = ref Q.zero in
        Array.iteri (fun i (coeffs, _, _) -> aty := Q.add !aty (Q.mul coeffs.(j) dual.(i))) rows;
        if Q.compare !aty problem.objective.(j) < 0 then bad := Some (j, !aty)
      end
    done;
    match !bad with
    | Some (j, aty) ->
      cert_fail "lp-dual-feasible" "(A^T y)_%d = %s < c_%d = %s" j (q_to_string aty) j
        (q_to_string problem.objective.(j))
    | None -> Ok ()
  in
  (* Strong duality: c^T x = value = b^T y, closing the sandwich
     c^T x <= value <= b^T y from both sides. *)
  let cx = dot problem.objective assignment in
  let by =
    let acc = ref Q.zero in
    Array.iteri (fun i (_, _, rhs) -> acc := Q.add !acc (Q.mul rhs dual.(i))) rows;
    !acc
  in
  if not (Q.equal cx value) then
    cert_fail "lp-strong-duality" "c^T x = %s but claimed value = %s" (q_to_string cx)
      (q_to_string value)
  else if not (Q.equal by value) then
    cert_fail "lp-strong-duality" "b^T y = %s but claimed value = %s" (q_to_string by)
      (q_to_string value)
  else Ok ()
