type target = Not_prefetch | Target of int | Unresolved of int

type t = {
  program : Program.t;
  block_bytes : int;
  base : int;  (* address of global slot 0 *)
  starts : int array;  (* global slot index of each block's first slot *)
  by_block : (int, (int * int) list) Hashtbl.t;  (* mem block -> slots, reversed *)
  uid_addr : int array;  (* uid -> address of its first slot, -1 if absent *)
  targets : target array;  (* global slot -> what its prefetch loads *)
}

let end_addr = 1 lsl 24

let lookup uid_addr uid =
  if uid < 0 || uid >= Array.length uid_addr || uid_addr.(uid) < 0 then None
  else Some uid_addr.(uid)

let make program ~block_bytes =
  if block_bytes <= 0 || block_bytes mod Instr.bytes <> 0 then
    invalid_arg "Layout.make: block_bytes must be a positive multiple of 4";
  if end_addr mod block_bytes <> 0 then
    invalid_arg "Layout.make: block_bytes must divide the anchor address";
  let n = Program.block_count program in
  let starts = Array.make n 0 in
  let total = ref 0 in
  for id = 0 to n - 1 do
    starts.(id) <- !total;
    total := !total + Program.slots program id
  done;
  let total = !total in
  let base = end_addr - (Instr.bytes * total) in
  let by_block = Hashtbl.create 64 in
  let instrs = Array.make total (Instr.compute ~uid:0) in
  let max_uid = ref (-1) in
  Program.iter_slots program (fun ~block ~pos ~instr ->
      let g = starts.(block) + pos in
      instrs.(g) <- instr;
      max_uid := max !max_uid instr.Instr.uid;
      let mb = (base + (Instr.bytes * g)) / block_bytes in
      let prev = try Hashtbl.find by_block mb with Not_found -> [] in
      Hashtbl.replace by_block mb ((block, pos) :: prev));
  (* uids are dense from 0 (every constructor draws them from one
     counter); the first slot in program order wins, as in
     [Program.find_uid] *)
  let uid_addr = Array.make (!max_uid + 1) (-1) in
  Array.iteri
    (fun g (instr : Instr.t) ->
      if instr.uid >= 0 && uid_addr.(instr.uid) < 0 then
        uid_addr.(instr.uid) <- base + (Instr.bytes * g))
    instrs;
  let targets =
    Array.map
      (fun (instr : Instr.t) ->
        match instr.kind with
        | Instr.Compute -> Not_prefetch
        | Instr.Prefetch uid -> (
          match lookup uid_addr uid with
          | Some a -> Target (a / block_bytes)
          | None -> Unresolved uid))
      instrs
  in
  { program; block_bytes; base; starts; by_block; uid_addr; targets }

let program t = t.program
let block_bytes t = t.block_bytes

let slot_index t ~block ~pos =
  let slot_count = Program.slots t.program block in
  if pos < 0 || pos >= slot_count then
    invalid_arg (Printf.sprintf "Layout.addr: block %d has no slot %d" block pos);
  t.starts.(block) + pos

let addr t ~block ~pos = t.base + (Instr.bytes * slot_index t ~block ~pos)

let mem_block_of_addr t a = a / t.block_bytes

let mem_block t ~block ~pos = mem_block_of_addr t (addr t ~block ~pos)

let addr_of_uid t uid = lookup t.uid_addr uid

let mem_block_of_uid t uid =
  match addr_of_uid t uid with None -> None | Some a -> Some (mem_block_of_addr t a)

let prefetch_target t ~block ~pos = t.targets.(slot_index t ~block ~pos)

let slots_of_mem_block t mb =
  match Hashtbl.find_opt t.by_block mb with
  | None -> []
  | Some slots -> List.rev slots

let first_slot_of_mem_block t mb =
  match slots_of_mem_block t mb with [] -> None | slot :: _ -> Some slot

let mem_block_ids t =
  Hashtbl.fold (fun mb _ acc -> mb :: acc) t.by_block [] |> List.sort compare

let code_mem_blocks t = Hashtbl.length t.by_block
