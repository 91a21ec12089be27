(* Self-tests of the benchmark's helpers: the seeded draws, the exact
   quantiles, the Zipf sampler, the open-loop backlog rule, span self
   time and the result line. *)

module B = Perfbench

let ints = List.init 37 Fun.id

let test_permute () =
  let a = B.permute ~seed:1 ~salt:1 ints in
  Alcotest.(check (list int)) "same seed, same order" a (B.permute ~seed:1 ~salt:1 ints);
  Alcotest.(check (list int)) "a permutation" ints (List.sort compare a);
  Alcotest.(check bool) "another seed, another order" true (a <> B.permute ~seed:2 ~salt:1 ints);
  Alcotest.(check bool) "another salt, another order" true (a <> B.permute ~seed:1 ~salt:2 ints)

let test_quantile () =
  (* nearest rank on the sorted samples 1..10: rank ceil (q * 10) *)
  let xs = [ 7.; 3.; 10.; 1.; 9.; 2.; 8.; 4.; 6.; 5. ] in
  let q = B.quantile in
  Alcotest.(check (float 0.0)) "p50" 5.0 (q 0.5 xs);
  Alcotest.(check (float 0.0)) "p90" 9.0 (q 0.9 xs);
  Alcotest.(check (float 0.0)) "p91 rounds up" 10.0 (q 0.91 xs);
  Alcotest.(check (float 0.0)) "p99" 10.0 (q 0.99 xs);
  Alcotest.(check (float 0.0)) "p0" 1.0 (q 0.0 xs);
  Alcotest.(check (float 0.0)) "p25" 3.0 (q 0.25 xs);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (q 0.5 []))

let test_zipf () =
  let z = B.zipf ~n:100 ~s:1.0 in
  let total = List.fold_left (fun acc k -> acc +. B.zipf_prob z k) 0.0 (List.init 100 Fun.id) in
  Alcotest.(check (float 1e-9)) "probabilities sum to 1" 1.0 total;
  Alcotest.(check (float 1e-9)) "p(rank 0) = 2 p(rank 1)" 2.0 (B.zipf_prob z 0 /. B.zipf_prob z 1);
  let draws r = List.init 200_000 (fun _ -> B.zipf_draw z r) in
  let d = draws (Ucp_util.Rng.create 9) in
  Alcotest.(check (list int)) "deterministic per seed" d (draws (Ucp_util.Rng.create 9));
  Alcotest.(check bool) "differs across seeds" true (d <> draws (Ucp_util.Rng.create 10));
  let freq k = float_of_int (List.length (List.filter (( = ) k) d)) /. 200_000.0 in
  List.iter
    (fun k ->
      Alcotest.(check (float 0.005)) (Printf.sprintf "frequency of rank %d" k) (B.zipf_prob z k) (freq k))
    [ 0; 1; 2; 9; 50 ];
  Alcotest.(check bool) "ranks in range" true (List.for_all (fun k -> k >= 0 && k < 100) d);
  let u = B.zipf ~n:4 ~s:0.0 in
  Alcotest.(check (float 1e-9)) "s = 0 is uniform" 0.25 (B.zipf_prob u 3)

(* due every 1 ms for one second *)
let due = Array.init 1000 (fun i -> float_of_int i *. 0.001)

let test_backlog () =
  let steady = Array.map (fun d -> d +. 0.002) due in
  Alcotest.(check int) "steady backlog" 2 (B.backlog_at ~due ~finish:steady 0.5);
  Alcotest.(check bool) "steady series passes" true
    (B.rung_passes ~rate:1000.0 ~limit_s:0.010 ~due ~finish:steady);
  (* service at 1.2 ms per request: the queue grows, p99 goes over *)
  let growing = Array.mapi (fun i _ -> float_of_int (i + 1) *. 0.0012) due in
  Alcotest.(check bool) "growing queue fails" false
    (B.rung_passes ~rate:1000.0 ~limit_s:0.050 ~due ~finish:growing);
  Alcotest.(check bool) "over the latency limit fails" false
    (B.rung_passes ~rate:1000.0 ~limit_s:0.001 ~due ~finish:steady);
  (* the last 1% stall: p99 is still fine, but 10 requests are
     outstanding at the end where 5 ms at 1000/s allows 5 *)
  let stalled = Array.mapi (fun i f -> if i >= 990 then 1.5 else f) steady in
  Alcotest.(check bool) "p99 alone would pass" true
    (B.quantile 0.99 (List.init 1000 (fun i -> stalled.(i) -. due.(i))) <= 0.005);
  Alcotest.(check bool) "backlog at the end fails" false
    (B.rung_passes ~rate:1000.0 ~limit_s:0.005 ~due ~finish:stalled);
  (* unanswered requests count as over the limit *)
  let lossy = Array.mapi (fun i f -> if i mod 100 = 0 then infinity else f) steady in
  Alcotest.(check bool) "1% unanswered passes" true
    (B.rung_passes ~rate:1000.0 ~limit_s:0.020 ~due ~finish:lossy);
  let lossier = Array.mapi (fun i f -> if i mod 50 = 0 then infinity else f) steady in
  Alcotest.(check bool) "2% unanswered fails" false
    (B.rung_passes ~rate:1000.0 ~limit_s:0.020 ~due ~finish:lossier);
  Alcotest.(check bool) "an empty rung fails" false
    (B.rung_passes ~rate:1000.0 ~limit_s:0.010 ~due:[||] ~finish:[||])

let test_self_times () =
  let sp id parent a b =
    {
      B.sp_id = id;
      sp_parent = parent;
      sp_name = "x";
      sp_key = "k";
      sp_tid = 0;
      sp_start = a;
      sp_stop = b;
      sp_args = [];
    }
  in
  let spans = [ sp 1 0 0.0 10.0; sp 2 1 1.0 3.0; sp 3 1 2.0 5.0; sp 4 1 8.0 12.0; sp 5 2 1.5 2.0 ] in
  let self id = List.assoc id (List.map (fun (s, t) -> (s.B.sp_id, t)) (B.self_times spans)) in
  (* children cover [1,5] and [8,10] of the parent *)
  Alcotest.(check (float 1e-9)) "parent self" 4.0 (self 1);
  Alcotest.(check (float 1e-9)) "child self" 1.5 (self 2);
  Alcotest.(check (float 1e-9)) "leaf self" 0.5 (self 5)

let test_mask () =
  let l = {|{"a":1,"audit_checks":7,"audit_s":0.123,"refine_mode":"nc"}|} in
  Alcotest.(check string) "masked" {|{"a":1,"audit_checks":7,"audit_s":_,"refine_mode":"nc"}|}
    (B.mask_audit_s l);
  Alcotest.(check string) "last field" {|{"a":0,"audit_s":_}|}
    (B.mask_audit_s {|{"a":0,"audit_s":1.5}|});
  Alcotest.(check string) "unaudited unchanged" {|{"a":1}|} (B.mask_audit_s {|{"a":1}|})

let test_result_line () =
  let m = { B.m_name = "setup_s"; m_value = 0.5; m_unit = "s"; m_n = 1 } in
  Alcotest.(check string) "line"
    {|{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}|}
    (B.result_json ~correct:true ~attempted:3 ~failed:0 [ m ])

let () =
  Alcotest.run "perfbench"
    [
      ( "draws",
        [
          Alcotest.test_case "permute" `Quick test_permute;
        ] );
      ("quantiles", [ Alcotest.test_case "hand-computed series" `Quick test_quantile ]);
      ("zipf", [ Alcotest.test_case "sampler" `Quick test_zipf ]);
      ("backlog", [ Alcotest.test_case "rule on synthetic series" `Quick test_backlog ]);
      ( "trace",
        [
          Alcotest.test_case "self times" `Quick test_self_times;
          Alcotest.test_case "audit_s mask" `Quick test_mask;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
    ]
