(* One study session played over the Sheetserve protocol, and the
   closed loop that plays sessions back to back on a fixed number of
   client threads. *)

open Sheet_serve
module P = Protocol
module Obs = Sheet_obs.Obs

type call = {
  req : P.request;
  start_ns : int;
  ns : int;  (** as the client sees it, from first send to answer *)
  ok : bool;  (** answered, not refused, with the expected kind *)
}

(* A rows answer is kept as its uid and a digest of its columns and
   rows: keeping the decoded tables of every session would grow the
   client's heap, and its collector's work, through the run. *)
type table = { uid : int; digest : Digest.t }

let digest columns rows =
  Digest.string (Marshal.to_string (columns, rows) [ Marshal.No_sharing ])

type outcome = {
  session : Schedule.session;
  arena : int;  (** from [welcome]; 0 when the session never got one *)
  calls : call array;  (** in the order sent *)
  busy : int;  (** [busy:true] refusals, each retried *)
  final : table option;  (** the [rows] answer *)
  connect_ns : int;  (** connecting and closing, outside any call *)
}

let requests (s : Schedule.session) =
  [ P.Hello (Printf.sprintf "s%d" s.index); P.Open s.task.base ]
  @ List.map (fun l -> P.Line l) s.lines
  @ [ P.Rows; P.Quit ]

let is_line = function P.Line _ -> true | _ -> false
let is_rows = function P.Rows -> true | _ -> false

(* A request succeeded when it got an answer of the expected kind. *)
let answered req resp =
  match (req, resp) with
  | P.Hello _, Ok (P.Welcome _)
  | P.Open _, Ok (P.Opened _)
  | P.Line _, Ok (P.Applied _)
  | P.Rows, Ok (P.Table _)
  | P.Quit, Ok P.Bye ->
      true
  | _ -> false

let failed c = not c.ok

(* Plays every request of [s] through [call]; a transport error ends
   the session, since the connection is gone. *)
let run_session ~call (s : Schedule.session) =
  let busy = ref 0 in
  let arena = ref 0 in
  let final = ref None in
  let rec send req =
    match call req with
    | Ok (P.Refused { busy = true; _ }) ->
        incr busy;
        Thread.delay 0.005;
        send req
    | resp -> resp
  in
  let rec go acc = function
    | [] -> List.rev acc
    | req :: rest -> (
        let t0 = Obs.now_ns () in
        let resp = send req in
        let ns = Obs.now_ns () - t0 in
        let c = { req; start_ns = t0; ns; ok = answered req resp } in
        (match resp with
        | Ok (P.Welcome { arena = a; _ }) -> arena := a
        | Ok (P.Table { uid; columns; rows }) ->
            final := Some { uid; digest = digest columns rows }
        | _ -> ());
        match resp with Error _ -> List.rev (c :: acc) | Ok _ -> go (c :: acc) rest)
  in
  let calls = Array.of_list (go [] (requests s)) in
  { session = s; arena = !arena; calls; busy = !busy; final = !final;
    connect_ns = 0 }

let rec connect ~path attempts =
  match Net.Client.connect ~path with
  | c -> c
  | exception Unix.Unix_error _ when attempts > 0 ->
      Thread.delay 0.01;
      connect ~path (attempts - 1)

let play_socket ~path s =
  let t0 = Obs.now_ns () in
  let c = connect ~path 500 in
  let t1 = Obs.now_ns () in
  let o = run_session ~call:(Net.Client.call c) s in
  let t2 = Obs.now_ns () in
  Net.Client.close c;
  { o with connect_ns = t1 - t0 + (Obs.now_ns () - t2) }

(* Closed loop, zero think time: each of [clients] threads takes the
   next session as soon as its previous one is answered, until [next]
   runs dry. Returns the results in session order and the wall time. *)
let drive ~clients ~(next : unit -> 'b option) ~(play : 'b -> 'a)
    ~(index : 'a -> int) =
  let m = Mutex.create () in
  let results = ref [] in
  let take () =
    Mutex.lock m;
    let s = next () in
    Mutex.unlock m;
    s
  in
  let rec worker () =
    match take () with
    | None -> ()
    | Some s ->
        let r = play s in
        Mutex.lock m;
        results := r :: !results;
        Mutex.unlock m;
        worker ()
  in
  let t0 = Obs.now_ns () in
  List.iter Thread.join (List.init clients (fun _ -> Thread.create worker ()));
  let wall = Obs.now_ns () - t0 in
  (List.sort (fun a b -> compare (index a) (index b)) !results, wall)

(* The schedule's sessions in order, in whole rounds of one session
   per task, until [deadline_ns] passes: every run then has the same
   task mix, whatever its length. *)
let until_deadline ~seed ~deadline_ns =
  let i = ref 0 in
  fun () ->
    if !i mod Array.length Schedule.tasks = 0 && Obs.now_ns () >= deadline_ns
    then None
    else begin
      let s = Schedule.session ~seed !i in
      incr i;
      Some s
    end

let of_list l =
  let rest = ref l in
  fun () ->
    match !rest with
    | [] -> None
    | x :: tl ->
        rest := tl;
        Some x
