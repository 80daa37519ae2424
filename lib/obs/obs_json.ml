type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------- printing ---------- *)

let hex = "0123456789abcdef"

(* Characters that print as themselves are copied in runs, one
   [add_substring] per run rather than one [add_char] per byte. *)
let add_string buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      if i > !run then Buffer.add_substring buf s !run (i - !run);
      run := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf hex.[Char.code c lsr 4];
          Buffer.add_char buf hex.[Char.code c land 0xf]
    end
  done;
  if n > !run then Buffer.add_substring buf s !run (n - !run);
  Buffer.add_char buf '"'

(* Decimal digits written straight into the buffer, the bytes of
   [string_of_int] without its intermediate string. The digits are
   taken from the non-positive [-|i|], which also covers [min_int]. *)
let add_int buf i =
  if i < 0 then Buffer.add_char buf '-';
  let m = if i < 0 then i else -i in
  let p = ref 1 in
  while m / !p <= -10 do
    p := !p * 10
  done;
  while !p > 0 do
    Buffer.add_char buf (Char.unsafe_chr (48 - (m / !p mod 10)));
    p := !p / 10
  done

(* The primitive behind [Printf.sprintf "%.17g"]: the same bytes,
   without the format interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

(* A float must re-read as a float (never as an int) and round-trip
   bit-exactly; %.17g is exact, and a trailing ".0" keeps "1" from
   collapsing into the Int constructor on re-parse. Non-finite floats
   have no JSON spelling and are emitted as null. *)
let add_float buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else begin
    let s = format_float "%.17g" f in
    Buffer.add_string buf s;
    if not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s) then
      Buffer.add_string buf ".0"
  end

let add_indent buf n = Buffer.add_string buf (String.make n ' ')

let to_buffer ?(pretty = false) buf v =
  let rec go depth v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> add_int buf i
    | Float f -> add_float buf f
    | String s -> add_string buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            if pretty then begin
              Buffer.add_char buf '\n';
              add_indent buf ((depth + 1) * 2)
            end;
            go (depth + 1) item)
          items;
        if pretty then begin
          Buffer.add_char buf '\n';
          add_indent buf (depth * 2)
        end;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            if pretty then begin
              Buffer.add_char buf '\n';
              add_indent buf ((depth + 1) * 2)
            end;
            add_string buf k;
            Buffer.add_string buf (if pretty then ": " else ":");
            go (depth + 1) item)
          fields;
        if pretty then begin
          Buffer.add_char buf '\n';
          add_indent buf (depth * 2)
        end;
        Buffer.add_char buf '}'
  in
  go 0 v

let to_string ?pretty v =
  let buf = Buffer.create 1024 in
  to_buffer ?pretty buf v;
  Buffer.contents buf

(* ---------- parsing ---------- *)

exception Fail of string

let max_depth = 512

(* The parser is a set of functions over one cursor: no closures, no
   [option] per peeked character, no [String.sub] but for the strings
   and numbers it returns. *)
type cursor = { s : string; n : int; mutable pos : int }

let fail c fmt =
  Printf.ksprintf
    (fun m -> raise (Fail (Printf.sprintf "at %d: %s" c.pos m)))
    fmt

(* NUL at end of input: NUL is never valid JSON, so whatever branch
   sees it fails, and the ones that report it check [c.pos < c.n] *)
let peek c = if c.pos < c.n then String.unsafe_get c.s c.pos else '\000'
let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    c.pos < c.n
    && match String.unsafe_get c.s c.pos with
       | ' ' | '\t' | '\n' | '\r' -> true
       | _ -> false
  do
    advance c
  done

let expect c ch =
  if c.pos >= c.n then fail c "expected %C, found end of input" ch
  else if String.unsafe_get c.s c.pos = ch then advance c
  else fail c "expected %C, found %C" ch c.s.[c.pos]

(* [word] occurs at the cursor; compared in place *)
let literal c word v =
  let l = String.length word in
  if c.pos + l > c.n then fail c "invalid literal";
  for i = 0 to l - 1 do
    if String.unsafe_get c.s (c.pos + i) <> String.unsafe_get word i then
      fail c "invalid literal"
  done;
  c.pos <- c.pos + l;
  v

let parse_hex4 c =
  if c.pos + 4 > c.n then fail c "truncated \\u escape";
  let h = String.sub c.s c.pos 4 in
  c.pos <- c.pos + 4;
  match int_of_string_opt ("0x" ^ h) with
  | Some code -> code
  | None -> fail c "bad \\u escape %S" h

(* encode a Unicode scalar value as UTF-8 *)
let utf8_add buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

(* after a backslash *)
let escape c buf =
  if c.pos >= c.n then fail c "unterminated escape";
  let e = c.s.[c.pos] in
  advance c;
  match e with
  | '"' -> Buffer.add_char buf '"'
  | '\\' -> Buffer.add_char buf '\\'
  | '/' -> Buffer.add_char buf '/'
  | 'n' -> Buffer.add_char buf '\n'
  | 'r' -> Buffer.add_char buf '\r'
  | 't' -> Buffer.add_char buf '\t'
  | 'b' -> Buffer.add_char buf '\b'
  | 'f' -> Buffer.add_char buf '\012'
  | 'u' ->
      let code = parse_hex4 c in
      (* surrogate pair *)
      if code >= 0xD800 && code <= 0xDBFF then begin
        if c.pos + 1 < c.n && c.s.[c.pos] = '\\' && c.s.[c.pos + 1] = 'u'
        then begin
          c.pos <- c.pos + 2;
          let low = parse_hex4 c in
          if low >= 0xDC00 && low <= 0xDFFF then
            utf8_add buf (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
          else fail c "unpaired surrogate"
        end
        else fail c "unpaired surrogate"
      end
      else if code >= 0xDC00 && code <= 0xDFFF then fail c "unpaired surrogate"
      else utf8_add buf code
  | e -> fail c "bad escape \\%C" e

(* past the bytes a string literal holds as they are: no quote, no
   backslash, no control character *)
let skip_plain c =
  while
    c.pos < c.n
    &&
    let ch = String.unsafe_get c.s c.pos in
    ch <> '"' && ch <> '\\' && ch >= ' '
  do
    advance c
  done

(* the [Buffer] path, from the first backslash on *)
let rec escaped_rest c buf =
  if c.pos >= c.n then fail c "unterminated string";
  match String.unsafe_get c.s c.pos with
  | '"' -> advance c
  | '\\' ->
      advance c;
      escape c buf;
      let run = c.pos in
      skip_plain c;
      Buffer.add_substring buf c.s run (c.pos - run);
      escaped_rest c buf
  | _ -> fail c "raw control character in string"

(* A string without escapes is one [String.sub]. *)
let parse_string_body c =
  expect c '"';
  let start = c.pos in
  skip_plain c;
  if c.pos < c.n && String.unsafe_get c.s c.pos = '"' then begin
    advance c;
    String.sub c.s start (c.pos - 1 - start)
  end
  else begin
    let buf = Buffer.create (2 * (c.pos - start) + 16) in
    Buffer.add_substring buf c.s start (c.pos - start);
    escaped_rest c buf;
    Buffer.contents buf
  end

let digits c =
  let d0 = c.pos in
  while c.pos < c.n && String.unsafe_get c.s c.pos >= '0'
        && String.unsafe_get c.s c.pos <= '9' do
    advance c
  done;
  if c.pos = d0 then fail c "expected digit"

let parse_number c =
  let start = c.pos in
  if peek c = '-' then advance c;
  let d0 = c.pos in
  digits c;
  let d1 = c.pos in
  let is_float = ref false in
  if peek c = '.' then begin
    is_float := true;
    advance c;
    digits c
  end;
  (match peek c with
  | 'e' | 'E' ->
      is_float := true;
      advance c;
      (match peek c with '+' | '-' -> advance c | _ -> ());
      digits c
  | _ -> ());
  if !is_float then Float (float_of_string (String.sub c.s start (c.pos - start)))
  else if d1 - d0 <= 18 then begin
    (* at most 18 digits cannot overflow a 63-bit int *)
    let v = ref 0 in
    for i = d0 to d1 - 1 do
      v := (10 * !v) + (Char.code (String.unsafe_get c.s i) - 48)
    done;
    Int (if d0 > start then - !v else !v)
  end
  else
    let text = String.sub c.s start (c.pos - start) in
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text)

let rec parse_value c depth =
  if depth > max_depth then fail c "nesting deeper than %d" max_depth;
  skip_ws c;
  match peek c with
  | 'n' -> literal c "null" Null
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | '"' -> String (parse_string_body c)
  | '-' | '0' .. '9' -> parse_number c
  | '[' ->
      advance c;
      skip_ws c;
      if peek c = ']' then begin
        advance c;
        List []
      end
      else List (items c (depth + 1))
  | '{' ->
      advance c;
      skip_ws c;
      if peek c = '}' then begin
        advance c;
        Obj []
      end
      else Obj (fields c (depth + 1))
  | _ when c.pos >= c.n -> fail c "unexpected end of input"
  | ch -> fail c "unexpected character %C" ch

and[@tail_mod_cons] items c depth =
  let v = parse_value c depth in
  skip_ws c;
  match peek c with
  | ',' ->
      advance c;
      v :: items c depth
  | ch ->
      if ch <> ']' then fail c "expected ',' or ']'";
      advance c;
      [ v ]

and[@tail_mod_cons] fields c depth =
  skip_ws c;
  let k = parse_string_body c in
  skip_ws c;
  expect c ':';
  let f = (k, parse_value c depth) in
  skip_ws c;
  match peek c with
  | ',' ->
      advance c;
      f :: fields c depth
  | ch ->
      if ch <> '}' then fail c "expected ',' or '}'";
      advance c;
      [ f ]

let parse (s : string) : (t, string) result =
  let c = { s; n = String.length s; pos = 0 } in
  match
    let v = parse_value c 0 in
    skip_ws c;
    if c.pos <> c.n then fail c "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail msg -> Error msg

let equal a b = Stdlib.compare a b = 0

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
