(* Unit and property tests for Ucp_util: deterministic RNG, statistics,
   table rendering, cooperative deadlines, LRU map, retry backoff,
   CRC-32. *)

module Rng = Ucp_util.Rng
module Stats = Ucp_util.Stats
module Table = Ucp_util.Table
module Deadline = Ucp_util.Deadline
module Lru = Ucp_util.Lru
module Backoff = Ucp_util.Backoff
module Crc32 = Ucp_util.Crc32

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true
    (Rng.next_int64 a <> Rng.next_int64 b)

let test_rng_int_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_rng_int_rejects_bad_bound () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_range () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 2.5 in
    Alcotest.(check bool) "in range" true (x >= 0.0 && x < 2.5)
  done

let test_rng_copy_independent () =
  let a = Rng.create 9 in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next_int64 a)
    (Rng.next_int64 b)

let test_rng_split () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  (* both remain usable and produce different streams *)
  Alcotest.(check bool) "split streams differ" true
    (Rng.next_int64 a <> Rng.next_int64 b)

let test_rng_int_unbiased_frequency () =
  (* rejection sampling: every residue of a small bound is equally
     likely; with 30_000 draws over bound 3 each bucket expects 10_000,
     so +-6% is > 10 sigma slack *)
  let rng = Rng.create 13 in
  let counts = Array.make 3 0 in
  let n = 30_000 in
  for _ = 1 to n do
    let x = Rng.int rng 3 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "bucket near n/3" true (c > 9_400 && c < 10_600))
    counts

let test_rng_int_bound_one () =
  let rng = Rng.create 17 in
  for _ = 1 to 100 do
    Alcotest.(check int) "bound 1 is always 0" 0 (Rng.int rng 1)
  done

let test_rng_bernoulli_frequency () =
  let rng = Rng.create 21 in
  let hits = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "frequency near 0.3" true (freq > 0.27 && freq < 0.33)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_mean () = check_float "mean" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ])
let test_mean_empty () = Alcotest.(check bool) "nan" true (Float.is_nan (Stats.mean []))

let test_geomean () = check_float "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ])

let test_geomean_rejects_nonpositive () =
  Alcotest.check_raises "nonpositive"
    (Invalid_argument "Stats.geomean: nonpositive sample") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

let test_stddev () =
  check_float "stddev of {2,4}" 1.0 (Stats.stddev [ 2.0; 4.0 ]);
  check_float "stddev of alternating" 1.0 (Stats.stddev [ 1.0; 3.0; 1.0; 3.0 ]);
  check_float "stddev of constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ])

let test_percentile () =
  let xs = [ 5.0; 1.0; 3.0; 2.0; 4.0 ] in
  check_float "median" 3.0 (Stats.percentile 50.0 xs);
  check_float "min" 1.0 (Stats.percentile 0.0 xs);
  check_float "max" 5.0 (Stats.percentile 100.0 xs)

(* pin the documented nearest-rank behavior at the edges *)
let test_percentile_singleton () =
  List.iter
    (fun p -> check_float "singleton" 7.0 (Stats.percentile p [ 7.0 ]))
    [ 0.0; 1.0; 50.0; 99.0; 100.0 ]

let test_percentile_no_interpolation () =
  (* even length: the median is the lower middle sample, not 2.5 *)
  let xs = [ 1.0; 2.0; 3.0; 4.0 ] in
  check_float "lower middle" 2.0 (Stats.percentile 50.0 xs);
  (* nearest rank: any positive p maps to a sample, never between *)
  check_float "p=10 is min" 1.0 (Stats.percentile 10.0 xs);
  check_float "p=75 is 3rd" 3.0 (Stats.percentile 75.0 xs);
  check_float "p=76 is 4th" 4.0 (Stats.percentile 76.0 xs)

let test_percentile_empty () =
  Alcotest.(check bool) "nan" true (Float.is_nan (Stats.percentile 50.0 []))

(* pin the documented population (not sample) deviation *)
let test_stddev_population () =
  check_float "population of {1,2,3,4}"
    (sqrt 1.25) (* sample deviation would be sqrt (5/3) *)
    (Stats.stddev [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "singleton" 0.0 (Stats.stddev [ 42.0 ]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.stddev []))

let test_fraction_below () =
  check_float "fraction" 0.4 (Stats.fraction_below 3.0 [ 1.0; 2.0; 3.0; 4.0; 5.0 ])

let test_summary () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check int) "n" 4 s.Stats.n;
  check_float "min" 1.0 s.Stats.min;
  check_float "max" 4.0 s.Stats.max;
  check_float "mean" 2.5 s.Stats.mean

let prop_mean_bounds =
  QCheck2.Test.make ~name:"mean between min and max" ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) (float_range (-100.) 100.))
    (fun xs ->
      let m = Stats.mean xs in
      m >= Stats.minimum xs -. 1e-9 && m <= Stats.maximum xs +. 1e-9)

let prop_geomean_le_mean =
  QCheck2.Test.make ~name:"geometric mean <= arithmetic mean" ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) (float_range 0.001 100.))
    (fun xs -> Stats.geomean xs <= Stats.mean xs +. 1e-9)

let prop_percentile_monotone =
  QCheck2.Test.make ~name:"percentiles are monotone" ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) (float_range (-50.) 50.))
    (fun xs ->
      Stats.percentile 25.0 xs <= Stats.percentile 50.0 xs
      && Stats.percentile 50.0 xs <= Stats.percentile 75.0 xs)

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let t = Table.create [ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.sub s 0 1 = "a");
  Alcotest.(check bool) "contains data" true
    (String.length (String.concat "" (String.split_on_char '3' s))
    < String.length s)

let test_table_ragged_rows () =
  let t = Table.create [ "a"; "b"; "c" ] in
  Table.add_row t [ "1" ];
  Table.add_row t [ "1"; "2"; "3"; "4" ];
  (* must not raise *)
  ignore (Table.render t)

let test_cells () =
  Alcotest.(check string) "pct" "11.2%" (Table.cell_pct 0.112);
  Alcotest.(check string) "float" "0.5000" (Table.cell_f 0.5)

(* ------------------------------------------------------------------ *)
(* Deadline *)

let test_deadline_unexpired () =
  let d = Deadline.after 60.0 in
  Alcotest.(check bool) "not expired" false (Deadline.expired d);
  Alcotest.(check bool) "remaining positive" true (Deadline.remaining d > 0.0);
  (* neither form raises while the deadline is in the future *)
  Deadline.check (Some d);
  Deadline.check None

let test_deadline_expiry () =
  let d = Deadline.after 0.002 in
  Unix.sleepf 0.01;
  Alcotest.(check bool) "expired" true (Deadline.expired d);
  Alcotest.(check bool) "remaining negative" true (Deadline.remaining d < 0.0);
  Alcotest.check_raises "check raises" Deadline.Deadline_exceeded (fun () ->
      Deadline.check (Some d))

let test_deadline_rejects_bad_secs () =
  List.iter
    (fun secs ->
      Alcotest.(check bool)
        (Printf.sprintf "after %f rejected" secs)
        true
        (try
           ignore (Deadline.after secs);
           false
         with Invalid_argument _ -> true))
    [ 0.0; -1.0; Float.nan; Float.infinity ]

(* ------------------------------------------------------------------ *)
(* Lru *)

let test_lru_basic () =
  let m = Lru.create ~capacity:2 in
  Lru.add m "a" 1;
  Lru.add m "b" 2;
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find m "a");
  (* a is now MRU; adding c evicts b *)
  Lru.add m "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Lru.find m "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Lru.find m "a");
  Alcotest.(check int) "evictions" 1 (Lru.evictions m);
  Alcotest.(check int) "length" 2 (Lru.length m)

let test_lru_zero_capacity () =
  let m = Lru.create ~capacity:0 in
  Lru.add m "a" 1;
  Alcotest.(check (option int)) "disabled cache misses" None (Lru.find m "a");
  Alcotest.(check int) "empty" 0 (Lru.length m)

let test_lru_rejects_negative () =
  Alcotest.check_raises "capacity -1"
    (Invalid_argument "Lru.create: capacity must be non-negative") (fun () ->
      ignore (Lru.create ~capacity:(-1)))

let test_lru_peek_does_not_promote () =
  let m = Lru.create ~capacity:2 in
  Lru.add m "a" 1;
  Lru.add m "b" 2;
  Alcotest.(check (option int)) "peek a" (Some 1) (Lru.peek m "a");
  (* a was NOT promoted, so it is still the LRU entry *)
  Lru.add m "c" 3;
  Alcotest.(check bool) "a evicted" false (Lru.mem m "a");
  Alcotest.(check bool) "b kept" true (Lru.mem m "b")

(* executable naive model: an assoc list in MRU-first order, trimmed to
   capacity — the qcheck oracle for the intrusive-list implementation *)
module Model = struct
  type t = { cap : int; mutable entries : (int * int) list }

  let create cap = { cap; entries = [] }

  let find m k =
    match List.assoc_opt k m.entries with
    | None -> None
    | Some v ->
      m.entries <- (k, v) :: List.remove_assoc k m.entries;
      Some v

  let add m k v =
    if m.cap > 0 then begin
      let without = List.remove_assoc k m.entries in
      let trimmed =
        if List.mem_assoc k m.entries || List.length without < m.cap then without
        else List.filteri (fun i _ -> i < m.cap - 1) without
      in
      m.entries <- (k, v) :: trimmed
    end

  let remove m k = m.entries <- List.remove_assoc k m.entries
end

type lru_op = Add of int * int | Find of int | Remove of int

let lru_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun k v -> Add (k, v)) (int_bound 12) (int_bound 1000));
        (3, map (fun k -> Find k) (int_bound 12));
        (1, map (fun k -> Remove k) (int_bound 12));
      ])

let lru_op_print = function
  | Add (k, v) -> Printf.sprintf "add %d %d" k v
  | Find k -> Printf.sprintf "find %d" k
  | Remove k -> Printf.sprintf "remove %d" k

let prop_lru_matches_model =
  QCheck.Test.make ~count:500 ~name:"lru agrees with naive model"
    QCheck.(
      pair (int_range 0 6)
        (list_of_size Gen.(int_range 0 60) (make ~print:lru_op_print lru_op_gen)))
    (fun (cap, ops) ->
      let m = Lru.create ~capacity:cap in
      let model = Model.create cap in
      List.iter
        (fun op ->
          match op with
          | Add (k, v) ->
            Lru.add m k v;
            Model.add model k v
          | Find k ->
            if Lru.find m k <> Model.find model k then
              QCheck.Test.fail_report "find disagrees with model"
          | Remove k ->
            Lru.remove m k;
            Model.remove model k)
        ops;
      (* full-state check: same entries in the same recency order *)
      Lru.to_list m = model.Model.entries
      && Lru.length m = List.length model.Model.entries
      && Lru.length m <= max cap 0)

(* ------------------------------------------------------------------ *)
(* Backoff *)

let test_backoff_deterministic () =
  let mk () = Backoff.create ~base:0.05 ~cap:5.0 (Rng.create 42) in
  let a = mk () and b = mk () in
  for _ = 1 to 50 do
    check_float "same schedule" (Backoff.next a) (Backoff.next b)
  done;
  Alcotest.(check int) "attempts counted" 50 (Backoff.attempts a)

let test_backoff_bounds () =
  let b = Backoff.create ~base:0.1 ~cap:2.0 (Rng.create 7) in
  let prev = ref 0.1 in
  for _ = 1 to 200 do
    let d = Backoff.next b in
    Alcotest.(check bool) "within [base, cap]" true (d >= 0.1 && d <= 2.0);
    (* decorrelated jitter: next delay < 3 * previous (or capped) *)
    Alcotest.(check bool) "decorrelated" true (d <= Float.max (3.0 *. !prev) 0.1 +. 1e-9);
    prev := d
  done

let test_backoff_reset () =
  let rng = Rng.create 9 in
  let b = Backoff.create ~base:0.05 ~cap:5.0 rng in
  for _ = 1 to 10 do
    ignore (Backoff.next b)
  done;
  Backoff.reset b;
  Alcotest.(check int) "attempts reset" 0 (Backoff.attempts b);
  let d = Backoff.next b in
  (* first post-reset delay is drawn from the fresh interval [base, 3*base) *)
  Alcotest.(check bool) "fresh interval" true (d >= 0.05 && d < 0.15)

let test_backoff_rejects_bad_params () =
  List.iter
    (fun (base, cap) ->
      Alcotest.(check bool)
        (Printf.sprintf "base %g cap %g rejected" base cap)
        true
        (try
           ignore (Backoff.create ~base ~cap (Rng.create 1));
           false
         with Invalid_argument _ -> true))
    [ (0.0, 1.0); (-1.0, 1.0); (2.0, 1.0); (Float.nan, 1.0); (0.1, Float.infinity) ]

(* ------------------------------------------------------------------ *)
(* Crc32 *)

let test_crc32_vector () =
  (* the standard CRC-32 check value *)
  Alcotest.(check string) "123456789" "cbf43926"
    (Crc32.to_hex (Crc32.string "123456789"));
  Alcotest.(check string) "empty" "00000000" (Crc32.to_hex (Crc32.string ""))

let prop_crc32_update_concat =
  QCheck.Test.make ~count:300 ~name:"crc32 update composes over concatenation"
    QCheck.(pair printable_string printable_string)
    (fun (a, b) -> Crc32.update (Crc32.string a) b = Crc32.string (a ^ b))

let prop_crc32_detects_flip =
  QCheck.Test.make ~count:300 ~name:"crc32 detects any single bit flip"
    QCheck.(pair (string_of_size Gen.(int_range 1 64)) (pair small_nat small_nat))
    (fun (s, (i, bit)) ->
      let i = i mod String.length s and bit = bit mod 8 in
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      Crc32.string (Bytes.to_string b) <> Crc32.string s)

(* ------------------------------------------------------------------ *)
(* Json: the number and string decoders the checkpoint journal relies
   on — %.17g floats and integers below 2^53 come back exactly, and
   every byte string survives a write/read round trip *)

module Json = Ucp_util.Json

let prop_json_float_exact =
  QCheck2.Test.make ~name:"json: %.17g floats parse back bit for bit" ~count:1000
    QCheck2.Gen.(
      oneof
        [
          float;
          map Int64.float_of_bits ui64;
          oneofl [ 0.0; -0.0; 4.9e-324; 2.2250738585072009e-308; 1e15; 1e16; 0.1 +. 0.2 ];
        ])
    (fun f ->
      QCheck2.assume (Float.is_finite f);
      match Json.parse (Printf.sprintf "%.17g" f) with
      | Ok (Json.Num v) -> Int64.bits_of_float v = Int64.bits_of_float f
      | _ -> false)

let prop_json_int_exact =
  QCheck2.Test.make ~name:"json: integers below 2^53 parse back exactly" ~count:1000
    QCheck2.Gen.(
      oneof
        [
          int_range (-1_000_000) 1_000_000;
          int_range (-(1 lsl 53)) (1 lsl 53);
          oneofl [ 999_999_999_999_999; 1_000_000_000_000_000; (1 lsl 53) - 1 ];
        ])
    (fun n ->
      match Json.parse (string_of_int n) with
      | Ok v -> Json.to_int v = Some n
      | Error _ -> false)

let prop_json_string_roundtrip =
  QCheck2.Test.make ~name:"json: any byte string round-trips" ~count:500
    QCheck2.Gen.(string_size ~gen:char (int_range 0 40))
    (fun str -> Json.parse (Json.to_string (Json.Str str)) = Ok (Json.Str str))

let test_json_rejects_malformed () =
  List.iter
    (fun bad ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" bad) true
        (Result.is_error (Json.parse bad)))
    [ "-"; "1."; "1e"; "1e+"; "+1"; ".5"; "\"abc"; "\"a\\"; "\"\001\""; "[1,]"; "{\"a\"}"; "1 2" ];
  Alcotest.(check bool) "negative zero keeps its sign" true
    (match Json.parse "-0" with Ok (Json.Num v) -> 1.0 /. v = Float.neg_infinity | _ -> false)

let () =
  Alcotest.run "ucp_util"
    [
      ( "json",
        [
          QCheck_alcotest.to_alcotest prop_json_float_exact;
          QCheck_alcotest.to_alcotest prop_json_int_exact;
          QCheck_alcotest.to_alcotest prop_json_string_roundtrip;
          Alcotest.test_case "rejects malformed input" `Quick test_json_rejects_malformed;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int bad bound" `Quick test_rng_int_rejects_bad_bound;
          Alcotest.test_case "int unbiased" `Quick test_rng_int_unbiased_frequency;
          Alcotest.test_case "int bound one" `Quick test_rng_int_bound_one;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "bernoulli" `Quick test_rng_bernoulli_frequency;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "mean empty" `Quick test_mean_empty;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "geomean nonpositive" `Quick test_geomean_rejects_nonpositive;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "percentile singleton" `Quick test_percentile_singleton;
          Alcotest.test_case "percentile nearest-rank" `Quick test_percentile_no_interpolation;
          Alcotest.test_case "percentile empty" `Quick test_percentile_empty;
          Alcotest.test_case "stddev population" `Quick test_stddev_population;
          Alcotest.test_case "fraction below" `Quick test_fraction_below;
          Alcotest.test_case "summary" `Quick test_summary;
          QCheck_alcotest.to_alcotest prop_mean_bounds;
          QCheck_alcotest.to_alcotest prop_geomean_le_mean;
          QCheck_alcotest.to_alcotest prop_percentile_monotone;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "ragged rows" `Quick test_table_ragged_rows;
          Alcotest.test_case "cells" `Quick test_cells;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "unexpired" `Quick test_deadline_unexpired;
          Alcotest.test_case "expiry" `Quick test_deadline_expiry;
          Alcotest.test_case "rejects bad seconds" `Quick test_deadline_rejects_bad_secs;
        ] );
      ( "lru",
        [
          Alcotest.test_case "basic eviction" `Quick test_lru_basic;
          Alcotest.test_case "zero capacity" `Quick test_lru_zero_capacity;
          Alcotest.test_case "rejects negative" `Quick test_lru_rejects_negative;
          Alcotest.test_case "peek does not promote" `Quick test_lru_peek_does_not_promote;
          QCheck_alcotest.to_alcotest prop_lru_matches_model;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "deterministic in the seed" `Quick test_backoff_deterministic;
          Alcotest.test_case "bounds" `Quick test_backoff_bounds;
          Alcotest.test_case "reset" `Quick test_backoff_reset;
          Alcotest.test_case "rejects bad params" `Quick test_backoff_rejects_bad_params;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "check vector" `Quick test_crc32_vector;
          QCheck_alcotest.to_alcotest prop_crc32_update_concat;
          QCheck_alcotest.to_alcotest prop_crc32_detects_flip;
        ] );
    ]
