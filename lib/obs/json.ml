(* Minimal JSON: just enough for the bench results/baseline files, because
   the toolchain ships no JSON library.  Numbers are all floats (ints print
   without a fractional part); strings are UTF-8 with the standard escapes;
   object member order is preserved. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* -- Parsing ------------------------------------------------------------ *)

type state = { src : string; mutable pos : int }

let error st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some x when x = c -> advance st
  | _ -> error st (Printf.sprintf "expected %C" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else error st (Printf.sprintf "expected %s" word)

let utf8_of_code b code =
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> error st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                if st.pos + 4 > String.length st.src then error st "truncated \\u escape";
                let hex = String.sub st.src st.pos 4 in
                st.pos <- st.pos + 4;
                let code =
                  try int_of_string ("0x" ^ hex) with _ -> error st "bad \\u escape"
                in
                utf8_of_code b code
            | _ -> error st "unknown escape");
            loop ())
    | Some c ->
        advance st;
        Buffer.add_char b c;
        loop ()
  in
  loop ();
  Buffer.contents b

(* JSON's number grammar: [-]? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
   A literal too large for a float is an error, not an infinity. *)
let parse_number st =
  let start = st.pos in
  let digits () =
    let first = st.pos in
    while (match peek st with Some '0' .. '9' -> true | _ -> false) do
      advance st
    done;
    st.pos > first
  in
  let text () = String.sub st.src start (st.pos - start) in
  let bad () = error st (Printf.sprintf "bad number %S" (text ())) in
  if peek st = Some '-' then advance st;
  (match peek st with Some '0' -> advance st | _ -> if not (digits ()) then bad ());
  if peek st = Some '.' then begin
    advance st;
    if not (digits ()) then bad ()
  end;
  (match peek st with
  | Some ('e' | 'E') ->
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      if not (digits ()) then bad ()
  | _ -> ());
  let f = float_of_string (text ()) in
  if Float.is_finite f then Num f else error st (Printf.sprintf "number %S overflows" (text ()))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws st;
          let key = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              members ((key, v) :: acc)
          | Some '}' ->
              advance st;
              List.rev ((key, v) :: acc)
          | _ -> error st "expected ',' or '}'"
        in
        Obj (members [])
      end
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              elements (v :: acc)
          | Some ']' ->
              advance st;
              List.rev (v :: acc)
          | _ -> error st "expected ',' or ']'"
        in
        List (elements [])
      end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> error st (Printf.sprintf "unexpected %C" c)

let parse s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then error st "trailing content";
  v

(* -- Printing ----------------------------------------------------------- *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_string ?(minify = false) v =
  let buf = Buffer.create 256 in
  let pad depth = if not minify then Buffer.add_string buf (String.make (2 * depth) ' ') in
  let nl () = if not minify then Buffer.add_char buf '\n' in
  let sep () = Buffer.add_string buf (if minify then ":" else ": ") in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Num f -> Buffer.add_string buf (num_to_string f)
    | Str s ->
        Buffer.add_char buf '"';
        escape_into buf s;
        Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        nl ();
        List.iteri
          (fun i item ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              nl ()
            end;
            pad (depth + 1);
            emit (depth + 1) item)
          items;
        nl ();
        pad depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj members ->
        Buffer.add_char buf '{';
        nl ();
        List.iteri
          (fun i (k, item) ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              nl ()
            end;
            pad (depth + 1);
            Buffer.add_char buf '"';
            escape_into buf k;
            Buffer.add_char buf '"';
            sep ();
            emit (depth + 1) item)
          members;
        nl ();
        pad depth;
        Buffer.add_char buf '}'
  in
  emit 0 v;
  Buffer.contents buf

(* -- Accessors ---------------------------------------------------------- *)

let member key = function Obj members -> List.assoc_opt key members | _ -> None

let mem_path path v =
  List.fold_left (fun acc key -> Option.bind acc (member key)) (Some v) path

let to_num = function Num f -> Some f | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let obj_members = function Obj members -> members | _ -> []
