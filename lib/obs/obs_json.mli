(** A minimal JSON value with an exact printer and a total parser.

    Sheetscope exports Chrome [trace_event] files and the benchmark
    baseline through this module; the parser exists so the repo can
    validate its own exports (the [@obs] gate and the fuzz harness
    round-trip every trace through {!parse}).

    Printing is exact: for any value [v] free of non-finite floats,
    [parse (to_string v) = Ok v] structurally. Non-finite floats have
    no JSON spelling and print as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Compact by default; [~pretty:true] indents by two spaces. *)

val to_buffer : ?pretty:bool -> Buffer.t -> t -> unit
(** {!to_string}, appended to a buffer. *)

(** {2 Scalar printers}

    The spelling of strings, ints and floats, for code that prints JSON
    straight into a buffer without building a {!t} (the Sheetserve
    table printer). {!to_buffer} prints through these, so a value
    printed either way has the same bytes. *)

val add_string : Buffer.t -> string -> unit
(** A quoted string literal. Quote, backslash, newline, carriage
    return, tab, backspace and form feed print as two-character
    escapes, every other byte below 0x20 as a [\u00XX] escape
    (lower-case hex); all other bytes, including non-ASCII ones, are
    copied as they are. The output never contains a raw newline. *)

val add_int : Buffer.t -> int -> unit
(** Decimal, with a leading [-] when negative: the bytes of
    [string_of_int]. *)

val add_float : Buffer.t -> float -> unit
(** A float in [%.17g], which re-reads bit-exactly, with [.0]
    appended when that spelling has no [.] or exponent, so it re-reads
    as a [Float] rather than an [Int]. Non-finite floats print as
    [null]. *)

val parse : string -> (t, string) result
(** Total: malformed input (including nesting deeper than 512 levels)
    comes back as [Error], never an exception. Numbers without a
    fraction or exponent parse as [Int] (falling back to [Float] on
    overflow); all others as [Float]. *)

val equal : t -> t -> bool
(** Structural equality ([Obj] field order matters, as the printer
    preserves it). *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on anything else. *)
