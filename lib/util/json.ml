type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of { pos : int; msg : string }

let () =
  Printexc.register_printer (function
    | Parse_error { pos; msg } ->
      Some (Printf.sprintf "Json.Parse_error at byte %d: %s" pos msg)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* parsing: a strict recursive-descent reader over the whole string —
   no trailing garbage, no unquoted keys, no comments, no bare NaN *)

type cursor = { src : string; mutable pos : int }

let error c fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error { pos = c.pos; msg })) fmt

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> error c "expected %C, found %C" ch x
  | None -> error c "expected %C, found end of input" ch

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let parse_literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else error c "invalid literal (expected %s)" word

(* general path: decode escapes byte by byte; [c.pos] is just past the
   opening quote *)
let parse_escaped c =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> error c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
      advance c;
      match peek c with
      | None -> error c "unterminated escape"
      | Some ch ->
        advance c;
        (match ch with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if c.pos + 4 > String.length c.src then error c "truncated \\u escape";
          let hex = String.sub c.src c.pos 4 in
          let code =
            match int_of_string_opt ("0x" ^ hex) with
            | Some v -> v
            | None -> error c "bad \\u escape %S" hex
          in
          c.pos <- c.pos + 4;
          (* encode the code point as UTF-8; surrogates are kept as-is
             bytes of their code unit, which round-trips our own writer *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
        | ch -> error c "invalid escape \\%C" ch);
        go ())
    | Some ch when Char.code ch < 0x20 -> error c "raw control byte in string"
    | Some ch ->
      advance c;
      Buffer.add_char buf ch;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_string c =
  expect c '"';
  (* fast path: a string without escapes or control bytes (every key,
     most values) is one substring *)
  let src = c.src in
  let rec plain i =
    if i >= String.length src then None
    else
      match src.[i] with
      | '"' -> Some i
      | '\\' -> None
      | ch when Char.code ch < 0x20 -> None
      | _ -> plain (i + 1)
  in
  match plain c.pos with
  | Some stop ->
    let v = String.sub src c.pos (stop - c.pos) in
    c.pos <- stop + 1;
    v
  | None -> parse_escaped c

let parse_number c =
  let src = c.src in
  let n = String.length src in
  let start = c.pos in
  let digits () =
    let first = c.pos in
    while c.pos < n && src.[c.pos] >= '0' && src.[c.pos] <= '9' do
      advance c
    done;
    c.pos - first
  in
  let negative = peek c = Some '-' in
  if negative then advance c;
  let int_start = c.pos in
  if digits () = 0 then error c "malformed number";
  let int_end = c.pos in
  let integral = ref true in
  if peek c = Some '.' then begin
    integral := false;
    advance c;
    if digits () = 0 then error c "malformed number (no digit after '.')"
  end;
  if peek c = Some 'e' || peek c = Some 'E' then begin
    integral := false;
    advance c;
    if peek c = Some '+' || peek c = Some '-' then advance c;
    if digits () = 0 then error c "malformed number (empty exponent)"
  end;
  if !integral && int_end - int_start <= 15 then begin
    (* short integers are exact in a float: skip the strtod round trip
       (journal and protocol lines are mostly small integers) *)
    let v = ref 0 in
    for i = int_start to int_end - 1 do
      v := (!v * 10) + Char.code src.[i] - Char.code '0'
    done;
    Num (if negative then -.float_of_int !v else float_of_int !v)
  end
  else
    let text = String.sub src start (c.pos - start) in
    match float_of_string_opt text with
    | Some v -> Num v
    | None -> error c "malformed number %S" text

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> error c "unexpected end of input"
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws c;
        let key = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          members ((key, v) :: acc)
        | Some '}' ->
          advance c;
          List.rev ((key, v) :: acc)
        | _ -> error c "expected ',' or '}' in object"
      in
      Obj (members [])
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      Arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          elements (v :: acc)
        | Some ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> error c "expected ',' or ']' in array"
      in
      Arr (elements [])
    end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> parse_literal c "true" (Bool true)
  | Some 'f' -> parse_literal c "false" (Bool false)
  | Some 'n' -> parse_literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> error c "unexpected character %C" ch

let parse src =
  let c = { src; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos <> String.length src then
      Error (Printf.sprintf "byte %d: trailing garbage after JSON value" c.pos)
    else Ok v
  | exception Parse_error { pos; msg } -> Error (Printf.sprintf "byte %d: %s" pos msg)

(* ------------------------------------------------------------------ *)
(* printing *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | ch when Char.code ch < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    s;
  Buffer.add_char buf '"'

let number_to_string v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num v -> Buffer.add_string buf (number_to_string v)
  | Str s -> escape_string buf s
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write buf v)
      items;
    Buffer.add_char buf ']'
  | Obj members ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_string buf k;
        Buffer.add_char buf ':';
        write buf v)
      members;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* accessors *)

let member key = function
  | Obj members -> List.assoc_opt key members
  | _ -> None

let to_float = function Num v -> Some v | _ -> None
let to_int = function
  | Num v when Float.is_integer v -> Some (int_of_float v)
  | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr items -> Some items | _ -> None
