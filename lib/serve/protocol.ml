open Sheet_rel
module J = Sheet_obs.Obs_json

type request =
  | Hello of string
  | Open of string
  | Line of string
  | Rows
  | Status
  | Ping
  | Quit

type response =
  | Welcome of { session : string; arena : int }
  | Opened of { base : string; uid : int; rows : int }
  | Applied of { uid : int; output : string option }
  | Table of {
      uid : int;
      columns : (string * Value.vtype) list;
      rows : Value.t list list;
    }
  | Stats of { sessions : int; ops : int; busy_rejections : int }
  | Pong
  | Bye
  | Refused of { busy : bool; reason : string }

(* ---- values ---- *)

(* a malformed table; caught once per table, never escapes a decoder *)
exception Bad of string

let cell : J.t -> Value.t = function
  | J.Null -> Value.Null
  | J.Bool b -> Value.Bool b
  | J.Int i -> Value.Int i
  | J.Float f -> Value.Float f
  | J.String s -> Value.String s
  | J.Obj [ ("date", J.Int d) ] -> Value.Date d
  | J.Obj _ -> raise (Bad "cell object is not {\"date\":<int>}")
  | J.List _ -> raise (Bad "cell cannot be a list")

let vtype_name = function
  | Value.TBool -> "bool"
  | Value.TInt -> "int"
  | Value.TFloat -> "float"
  | Value.TString -> "string"
  | Value.TDate -> "date"

let vtype_of_name = function
  | "bool" -> Some Value.TBool
  | "int" -> Some Value.TInt
  | "float" -> Some Value.TFloat
  | "string" -> Some Value.TString
  | "date" -> Some Value.TDate
  | _ -> None

(* ---- decode helpers (total) ---- *)

let str_field name j =
  match J.member name j with
  | Some (J.String s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S is not a string" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let int_field name j =
  match J.member name j with
  | Some (J.Int i) -> Ok i
  | Some _ -> Error (Printf.sprintf "field %S is not an int" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let bool_field name j =
  match J.member name j with
  | Some (J.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S is not a bool" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let ( let* ) = Result.bind

(* ---- requests ---- *)

let encode_request req =
  let obj =
    match req with
    | Hello client -> [ ("op", J.String "hello"); ("client", J.String client) ]
    | Open base -> [ ("op", J.String "open"); ("base", J.String base) ]
    | Line text -> [ ("op", J.String "line"); ("text", J.String text) ]
    | Rows -> [ ("op", J.String "rows") ]
    | Status -> [ ("op", J.String "status") ]
    | Ping -> [ ("op", J.String "ping") ]
    | Quit -> [ ("op", J.String "quit") ]
  in
  J.to_string (J.Obj obj)

let decode_request line =
  let* j = J.parse line in
  let* op = str_field "op" j in
  match op with
  | "hello" ->
      let* client = str_field "client" j in
      Ok (Hello client)
  | "open" ->
      let* base = str_field "base" j in
      Ok (Open base)
  | "line" ->
      let* text = str_field "text" j in
      Ok (Line text)
  | "rows" -> Ok Rows
  | "status" -> Ok Status
  | "ping" -> Ok Ping
  | "quit" -> Ok Quit
  | other -> Error (Printf.sprintf "unknown op %S" other)

(* ---- responses ---- *)

let ok ty fields = J.Obj (("ok", J.Bool true) :: ("type", J.String ty) :: fields)

(* ---- tables, printed cell by cell without a [J.t] tree ---- *)

let add_value buf = function
  | Value.Null -> Buffer.add_string buf "null"
  | Value.Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Value.Int i -> J.add_int buf i
  | Value.Float f -> J.add_float buf f
  | Value.String s -> J.add_string buf s
  | Value.Date d ->
      Buffer.add_string buf "{\"date\":";
      J.add_int buf d;
      Buffer.add_char buf '}'

(* [[x,...]] for any container with an [iteri] *)
let add_list buf add iteri xs =
  Buffer.add_char buf '[';
  iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      add buf x)
    xs;
  Buffer.add_char buf ']'

let add_column buf (name, ty) =
  Buffer.add_char buf '[';
  J.add_string buf name;
  Buffer.add_string buf ",\"";
  Buffer.add_string buf (vtype_name ty);
  Buffer.add_string buf "\"]"

let add_table buf ~uid ~columns add_rows =
  Buffer.add_string buf "{\"ok\":true,\"type\":\"table\",\"uid\":";
  J.add_int buf uid;
  Buffer.add_string buf ",\"columns\":";
  add_list buf add_column List.iteri columns;
  Buffer.add_string buf ",\"rows\":";
  add_rows buf;
  Buffer.add_char buf '}'

let table_to_buffer buf ~uid ~columns rows =
  add_table buf ~uid ~columns (fun buf ->
      add_list buf
        (fun buf row -> add_list buf add_value Array.iteri row)
        Array.iteri rows)

let response_to_buffer buf resp =
  let tree j = J.to_buffer buf j in
  match resp with
  | Welcome { session; arena } ->
      tree (ok "welcome" [ ("session", J.String session); ("arena", J.Int arena) ])
  | Opened { base; uid; rows } ->
      tree
        (ok "opened"
           [ ("base", J.String base); ("uid", J.Int uid); ("rows", J.Int rows) ])
  | Applied { uid; output } ->
      tree
        (ok "applied"
           (("uid", J.Int uid)
           ::
           (match output with
           | None -> []
           | Some s -> [ ("output", J.String s) ])))
  | Table { uid; columns; rows } ->
      add_table buf ~uid ~columns (fun buf ->
          add_list buf
            (fun buf row -> add_list buf add_value List.iteri row)
            List.iteri rows)
  | Stats { sessions; ops; busy_rejections } ->
      tree
        (ok "stats"
           [ ("sessions", J.Int sessions);
             ("ops", J.Int ops);
             ("busy_rejections", J.Int busy_rejections)
           ])
  | Pong -> tree (ok "pong" [])
  | Bye -> tree (ok "bye" [])
  | Refused { busy; reason } ->
      tree
        (J.Obj
           [ ("ok", J.Bool false);
             ("busy", J.Bool busy);
             ("error", J.String reason)
           ])

let encode_response resp =
  let buf = Buffer.create 256 in
  response_to_buffer buf resp;
  Buffer.contents buf

let column = function
  | J.List [ J.String name; J.String ty ] -> (
      match vtype_of_name ty with
      | Some ty -> (name, ty)
      | None -> raise (Bad (Printf.sprintf "unknown column type %S" ty)))
  | _ -> raise (Bad "column is not [name, type]")

let row = function
  | J.List cells -> List.map cell cells
  | _ -> raise (Bad "row is not a list")

let list_field name f j =
  match J.member name j with
  | Some (J.List xs) -> ( try Ok (List.map f xs) with Bad e -> Error e)
  | Some _ -> Error (Printf.sprintf "field %S is not a list" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let decode_response line =
  let* j = J.parse line in
  let* okp = bool_field "ok" j in
  if not okp then
    let* busy = bool_field "busy" j in
    let* reason = str_field "error" j in
    Ok (Refused { busy; reason })
  else
    let* ty = str_field "type" j in
    match ty with
    | "welcome" ->
        let* session = str_field "session" j in
        let* arena = int_field "arena" j in
        Ok (Welcome { session; arena })
    | "opened" ->
        let* base = str_field "base" j in
        let* uid = int_field "uid" j in
        let* rows = int_field "rows" j in
        Ok (Opened { base; uid; rows })
    | "applied" ->
        let* uid = int_field "uid" j in
        let* output =
          match J.member "output" j with
          | None -> Ok None
          | Some (J.String s) -> Ok (Some s)
          | Some _ -> Error "field \"output\" is not a string"
        in
        Ok (Applied { uid; output })
    | "table" ->
        let* uid = int_field "uid" j in
        let* columns = list_field "columns" column j in
        let* rows = list_field "rows" row j in
        Ok (Table { uid; columns; rows })
    | "stats" ->
        let* sessions = int_field "sessions" j in
        let* ops = int_field "ops" j in
        let* busy_rejections = int_field "busy_rejections" j in
        Ok (Stats { sessions; ops; busy_rejections })
    | "pong" -> Ok Pong
    | "bye" -> Ok Bye
    | other -> Error (Printf.sprintf "unknown response type %S" other)
