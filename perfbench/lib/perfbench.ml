module Rng = Ucp_util.Rng

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* ------------------------------------------------------------------ *)
(* seeded draws *)

(* one generator per (seed, salt), so independent draws of one run do
   not shift each other when one of them changes size *)
let rng ~seed ~salt = Rng.create ((seed * 1_000_003) + salt)

let permute ~seed ~salt xs =
  let a = Array.of_list xs in
  let r = rng ~seed ~salt in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* exact statistics *)

let quantile q xs = Ucp_util.Stats.percentile (q *. 100.0) xs

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* Zipf *)

type zipf = { cdf : float array }

let zipf ~n ~s =
  if n < 1 || s < 0.0 then invalid_arg "Perfbench.zipf";
  let w = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  let cdf =
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w
  in
  cdf.(n - 1) <- 1.0;
  { cdf }

let zipf_prob z k = if k = 0 then z.cdf.(0) else z.cdf.(k) -. z.cdf.(k - 1)

let zipf_draw z r =
  let u = Rng.float r 1.0 in
  (* first rank whose cumulative probability exceeds u *)
  let lo = ref 0 and hi = ref (Array.length z.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

(* ------------------------------------------------------------------ *)
(* backlog rule *)

let backlog_at ~due ~finish t =
  let n = ref 0 in
  Array.iteri (fun i d -> if d <= t && finish.(i) > t then incr n) due;
  !n

let rung_passes ~rate ~limit_s ~due ~finish =
  let n = Array.length due in
  n > 0
  &&
  let lat = List.init n (fun i -> finish.(i) -. due.(i)) in
  let last_due = Array.fold_left Float.max neg_infinity due in
  quantile 0.99 lat <= limit_s
  && backlog_at ~due ~finish last_due
     <= int_of_float (Float.ceil (rate *. limit_s))

(* ------------------------------------------------------------------ *)
(* spans *)

type span = {
  sp_id : int;
  sp_parent : int;
  sp_name : string;
  sp_key : string;
  sp_tid : int;
  sp_start : float;
  sp_stop : float;
  sp_args : (string * int) list;
}

type recorder = {
  key : string;
  tid : int;
  mutable next : int;
  mutable acc : span list;
}

let recorder ~key ~id_base =
  { key; tid = (Domain.self () :> int); next = id_base; acc = [] }

let span r ?(parent = 0) ?args name f =
  r.next <- r.next + 1;
  let id = r.next in
  let t0 = now () in
  let v = f id in
  let t1 = now () in
  let args = match args with None -> [] | Some g -> g () in
  r.acc <-
    {
      sp_id = id;
      sp_parent = parent;
      sp_name = name;
      sp_key = r.key;
      sp_tid = r.tid;
      sp_start = t0;
      sp_stop = t1;
      sp_args = args;
    }
    :: r.acc;
  v

let spans r = List.rev r.acc

(* length of the union of [intervals], clipped to [lo, hi] *)
let covered lo hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.sp_parent <> 0 then
        Hashtbl.add children s.sp_parent (s.sp_start, s.sp_stop))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.sp_id in
      (s, s.sp_stop -. s.sp_start -. covered s.sp_start s.sp_stop kids))
    spans

let chrome_json ~t0 spans =
  let module J = Ucp_util.Json in
  let us x = (x -. t0) *. 1e6 in
  let event (s, self) =
    J.Obj
      [
        ("name", J.Str s.sp_name);
        ("cat", J.Str "perfbench");
        ("ph", J.Str "X");
        ("ts", J.Num (us s.sp_start));
        ("dur", J.Num ((s.sp_stop -. s.sp_start) *. 1e6));
        ("pid", J.Num 1.0);
        ("tid", J.Num (float_of_int s.sp_tid));
        ( "args",
          J.Obj
            ([
               ("key", J.Str s.sp_key);
               ("id", J.Num (float_of_int s.sp_id));
               ("parent", J.Num (float_of_int s.sp_parent));
               ("self_us", J.Num (Float.round (self *. 1e6)));
             ]
            @ List.map (fun (k, v) -> (k, J.Num (float_of_int v))) s.sp_args) );
      ]
  in
  J.to_string
    (J.Obj
       [
         ("traceEvents", J.Arr (List.map event (self_times spans)));
         ("displayTimeUnit", J.Str "ms");
       ])

(* ------------------------------------------------------------------ *)
(* record lines *)

let mask_audit_s line =
  let key = {|,"audit_s":|} in
  let kl = String.length key in
  let rec find i =
    if i + kl > String.length line then None
    else if String.sub line i kl = key then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> line
  | Some i ->
    let j = ref (i + kl) in
    while !j < String.length line && line.[!j] <> ',' && line.[!j] <> '}' do
      incr j
    done;
    String.sub line 0 (i + kl) ^ "_" ^ String.sub line !j (String.length line - !j)

(* ------------------------------------------------------------------ *)
(* result line *)

type metric = { m_name : string; m_value : float; m_unit : string; m_n : int }

let result_json ~correct ~attempted ~failed metrics =
  let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null" in
  let metric m =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
      (Ucp_core.Report.json_string m.m_name)
      (num m.m_value)
      (Ucp_core.Report.json_string m.m_unit)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))
