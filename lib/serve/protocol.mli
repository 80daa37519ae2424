(** Sheetserve wire protocol: newline-delimited JSON, one value per
    line in each direction (DESIGN.md §10).

    The protocol is {e total} in both directions, matching the
    [test_fuzz] discipline of every other parsing entry point in the
    repo: {!decode_request} and {!decode_response} answer [Error] on
    arbitrary bytes and never raise, and the encoders emit exactly one
    line (the bundled JSON printer escapes every control character, so
    a payload cannot smuggle a frame boundary). Encoding round-trips:
    [decode (encode v) = Ok v] for every value free of non-finite
    floats (qcheck-tested), which JSON cannot spell — they encode as
    [null] and decode as {!Sheet_rel.Value.Null}.

    Grammar (one JSON object per line):
    {v
    request  := {"op":"hello","client":<string>}
              | {"op":"open","base":<string>}
              | {"op":"line","text":<string>}
              | {"op":"rows"} | {"op":"status"} | {"op":"ping"}
              | {"op":"quit"}
    response := {"ok":true,"type":"welcome","session":s,"arena":a}
              | {"ok":true,"type":"opened","base":b,"uid":u,"rows":n}
              | {"ok":true,"type":"applied","uid":u[,"output":s]}
              | {"ok":true,"type":"table","uid":u,
                 "columns":[[name,type],...],"rows":[[cell,...],...]}
              | {"ok":true,"type":"stats","sessions":n,"ops":n,
                 "busy_rejections":n}
              | {"ok":true,"type":"pong"} | {"ok":true,"type":"bye"}
              | {"ok":false,"busy":<bool>,"error":<string>}
    cell     := null | <bool> | <int> | <float> | <string>
              | {"date":<days>}
    v} *)

open Sheet_rel

type request =
  | Hello of string
      (** Establish (or re-attach to) the session keyed by this client
          id. Must precede [open]/[line]/[rows] on a connection. *)
  | Open of string
      (** Start a fresh session timeline on the named base relation. *)
  | Line of string  (** One {!Sheet_core.Script} command line. *)
  | Rows  (** The visible materialization of the current sheet. *)
  | Status  (** Server-wide counters. *)
  | Ping
  | Quit  (** End the session and the connection. *)

type response =
  | Welcome of { session : string; arena : int }
      (** [arena] is the session's uid namespace
          ({!Sheet_core.Spreadsheet.in_uid_arena}) — what a serial
          replay must allocate from to reproduce the session's uids
          bit-identically. *)
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
      (** [busy = true] marks an admission-control rejection (server
          full or per-session rate cap): the request was well-formed
          and may simply be retried. [busy = false] is a real error —
          parse failure, unknown base, engine refusal. *)

val encode_request : request -> string
(** One line, no trailing newline. *)

val decode_request : string -> (request, string) result

val encode_response : response -> string
(** One line, no trailing newline: {!response_to_buffer} into a fresh
    buffer. *)

val decode_response : string -> (response, string) result

val response_to_buffer : Buffer.t -> response -> unit
(** Append the line {!encode_response} spells. A [Table] prints cell by
    cell through {!Sheet_obs.Obs_json.add_string} and
    {!Sheet_obs.Obs_json.add_float}, without building a JSON tree. *)

val table_to_buffer :
  Buffer.t ->
  uid:int ->
  columns:(string * Value.vtype) list ->
  Row.t array ->
  unit
(** Append the [Table] line for rows still held as arrays (a
    relation's own storage): the same bytes as {!response_to_buffer}
    of [Table { uid; columns; rows = List.map Row.to_list rows }],
    without the lists. *)

val vtype_name : Value.vtype -> string
val vtype_of_name : string -> Value.vtype option
