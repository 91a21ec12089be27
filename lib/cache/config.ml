type t = { assoc : int; block_bytes : int; capacity : int; sets : int }

let make ~assoc ~block_bytes ~capacity =
  if assoc <= 0 || block_bytes <= 0 || capacity <= 0 then
    invalid_arg "Config.make: parameters must be positive";
  if block_bytes mod Ucp_isa.Instr.bytes <> 0 then
    invalid_arg "Config.make: block size must be a multiple of the instruction size";
  if capacity mod (assoc * block_bytes) <> 0 then
    invalid_arg "Config.make: capacity must be a multiple of assoc * block_bytes";
  { assoc; block_bytes; capacity; sets = capacity / (assoc * block_bytes) }

let set_of_mem_block t mb =
  let s = mb mod t.sets in
  if s < 0 then s + t.sets else s

let paper_configs =
  let capacities = [ 256; 512; 1024; 2048; 4096; 8192 ] in
  let blocks = [ 16; 32 ] in
  let assocs = [ 1; 2; 4 ] in
  let i = ref 0 in
  List.concat_map
    (fun capacity ->
      List.concat_map
        (fun block_bytes ->
          List.map
            (fun assoc ->
              incr i;
              (Printf.sprintf "k%d" !i, make ~assoc ~block_bytes ~capacity))
            assocs)
        blocks)
    capacities

let id t = Printf.sprintf "(%d,%d,%d)" t.assoc t.block_bytes t.capacity

let scaled_capacity t factor =
  let capacity = t.capacity / factor in
  if capacity >= t.assoc * t.block_bytes && capacity mod (t.assoc * t.block_bytes) = 0
  then Some (make ~assoc:t.assoc ~block_bytes:t.block_bytes ~capacity)
  else None

let half_capacity t = scaled_capacity t 2

let pp ppf t = Format.pp_print_string ppf (id t)

let equal a b = a = b
