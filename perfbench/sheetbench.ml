(* SheetMusiq benchmark: study sessions served over the socket and
   replayed in process.

     sheetbench --workload serve-study|local-study
                --seed N --seconds S --trace 0|1 --server PATH

   Prints human-readable lines, then one JSON result as the last line
   of standard output. With --trace 0 it reports the end-to-end
   metrics; with --trace 1 it repeats the untraced phase and then
   attributes its time to layers by timing calls into each layer's
   public functions from outside (see perfbench/README.md). Exits 1
   when any output fails its correctness check. *)

open Sheet_rel
open Sheet_core
open Sheet_serve
module P = Protocol
module Obs = Sheet_obs.Obs
module H = Obs.Histogram

let now = Obs.now_ns
let clients = 2
let say fmt = Printf.printf (fmt ^^ "\n%!")

type args = {
  wl : Schedule.workload;
  seed : int;
  seconds : float;
  trace : bool;
  server : string;
  commit : string;
}

(* ---- data and the in-process engine ---- *)

let catalog wl =
  Sheet_tpch.Tpch_views.install
    (Sheet_tpch.Tpch_gen.generate
       { Sheet_tpch.Tpch_gen.sf = Schedule.scale_factor wl; seed = Schedule.data_seed })

let base catalog (s : Schedule.session) =
  match Sheet_sql.Catalog.find catalog s.task.base with
  | Some r -> r
  | None -> failwith ("no base relation " ^ s.task.base)

let columns_of rel =
  List.map
    (fun c -> (c.Schema.name, c.Schema.ty))
    (Schema.columns (Relation.schema rel))

let table_of uid rel =
  {
    Served.uid;
    digest =
      Served.digest (columns_of rel) (List.map Row.to_list (Relation.rows rel));
  }

let same_rows (a : Served.table) (b : Served.table) = a.digest = b.digest

(* serve-study: the session replayed alone, in its own uid arena, must
   give the same rows, order and final uid as when it was served. *)
let serial_replay catalog (o : Served.outcome) =
  Spreadsheet.reset_uid_arena o.arena;
  Spreadsheet.in_uid_arena o.arena @@ fun () ->
  let s = ref (Session.create ~name:o.session.task.base (base catalog o.session)) in
  List.iter
    (fun l ->
      match Script.run_line !s l with
      | Ok r -> s := r.Script.session
      | Error _ -> ())
    o.session.lines;
  table_of (Session.current !s).Spreadsheet.uid (Session.materialized !s)

(* local-study: the canonical final state equals the task's SQL
   answer as a multiset (Theorem 1). *)
let canonical (task : Sheet_tpch.Tpch_tasks.t) rel =
  let p = Rel_algebra.project task.output rel in
  if task.grouped then Rel_algebra.distinct p else p

let sql_oracle catalog =
  let memo = Hashtbl.create 12 in
  fun (task : Sheet_tpch.Tpch_tasks.t) ->
    match Hashtbl.find_opt memo task.id with
    | Some r -> r
    | None ->
        let r = Sheet_tpch.Tpch_tasks.sql_result catalog task in
        Hashtbl.replace memo task.id r;
        r

(* ---- the server process ---- *)

let run_dir = ".perfbench"
let live = ref []

let stop_server pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let () = at_exit (fun () -> List.iter stop_server !live)

let socket_path tag =
  Filename.concat run_dir (Printf.sprintf "%d-%s.sock" (Unix.getpid ()) tag)

let call_once ~path req =
  match Net.Client.connect ~path with
  | exception Unix.Unix_error _ -> None
  | c ->
      let r = Net.Client.call c req in
      Net.Client.close c;
      Result.to_option r

(* Starts bin/sheetserved.exe and returns once it answers [ping]. *)
let start_server args ~path =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let argv =
    [|
      args.server; "--socket"; path; "--sf";
      Printf.sprintf "%g" (Schedule.scale_factor args.wl);
      "--max-sessions"; "1024";
    |]
  in
  let pid = Unix.create_process args.server argv null null null in
  Unix.close null;
  live := pid :: !live;
  let give_up = now () + 120_000_000_000 in
  let rec wait () =
    match call_once ~path P.Ping with
    | Some P.Pong -> ()
    | _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live := List.filter (( <> ) pid) !live;
            failwith "sheetserved exited before answering ping");
        if now () > give_up then failwith "sheetserved never answered ping";
        Thread.delay 0.0005;
        wait ()
  in
  wait ();
  pid

(* Set-up is the time from spawning the server (which generates TPC-H
   and installs the views) until it answers [ping]; measured
   [setup_repeats] times, median reported. The last server is kept. *)
let setup_repeats = 9

let setup_server args =
  let rec go k acc =
    let path = socket_path (string_of_int k) in
    let t0 = now () in
    let pid = start_server args ~path in
    let dt = now () - t0 in
    if k = setup_repeats then (pid, path, dt :: acc)
    else begin
      stop_server pid;
      go (k + 1) (dt :: acc)
    end
  in
  let pid, path, times = go 1 [] in
  (pid, path, Stat.median (Array.of_list (List.map Stat.ms_of_ns times)) /. 1e3)

(* ---- results ---- *)

type e2e = {
  steps : float array;  (** ms *)
  rows : float array;  (** ms *)
  steps_per_s : float;
  setup_s : float;
  attempted : int;
  failed : int;
}

let mean_ms a = if Array.length a = 0 then 0. else Stat.sum a /. float_of_int (Array.length a)

(* The central figures are means: a run's step latencies spread over
   three decades (undo and cache hits against replays), and the share
   of cheap steps moves with the seed, so their medians swing between
   seeds by more than any useful bound. Medians are printed beside
   them. *)
let e2e_metrics e =
  Stat.
    [
      metric "step_mean_ms" "ms" (mean_ms e.steps);
      metric "step_p99_ms" "ms" (percentile e.steps 0.99);
      metric "rows_mean_ms" "ms" (mean_ms e.rows);
      metric "rows_p90_ms" "ms" (percentile e.rows 0.9);
      metric "steps_per_s" "1/s" e.steps_per_s;
      metric "setup_s" "s" e.setup_s;
    ]

let report_e2e wl e =
  say "workload %s: %d step sample(s), %d beyond p99; %d rows sample(s), %d beyond p90"
    (Schedule.name wl) (Array.length e.steps)
    (Stat.beyond e.steps 0.99)
    (Array.length e.rows) (Stat.beyond e.rows 0.9);
  List.iter
    (fun (m : Stat.metric) -> say "  %-14s %14.4f %s" m.name m.value m.unit_)
    (e2e_metrics e);
  say "  %-14s %14.4f ms" "step_p50_ms" (Stat.median e.steps);
  say "  %-14s %14.4f ms" "rows_p50_ms" (Stat.median e.rows);
  say "  %-14s %14.6f (%d failed of %d attempted)" "failed_ratio"
    (if e.attempted = 0 then 0.
     else float_of_int e.failed /. float_of_int e.attempted)
    e.failed e.attempted

let ms_of_list l = Array.of_list (List.map Stat.ms_of_ns l)

(* ---- serve workloads: the untraced run ---- *)

let calls (outcomes : Served.outcome list) pred =
  List.concat_map
    (fun (o : Served.outcome) ->
      List.filter (fun (c : Served.call) -> pred c.req) (Array.to_list o.calls))
    outcomes

let serve_e2e ~setup_s ~wall ~check_failures ~warm outcomes =
  let ns pred = List.map (fun (c : Served.call) -> c.ns) (calls outcomes pred) in
  let steps = ns Served.is_line in
  let all = calls (warm @ outcomes) (fun _ -> true) in
  {
    steps = ms_of_list steps;
    rows = ms_of_list (ns Served.is_rows);
    steps_per_s = float_of_int (List.length steps) /. (float_of_int wall /. 1e9);
    setup_s;
    attempted = List.length all;
    failed = List.length (List.filter Served.failed all) + check_failures;
  }

(* requests = exact + subsumed + miss *)
let cache_identity_of name (s : Materialize.cache_stats) =
  if s.requests = s.hits + s.subsumed_hits + s.misses then 0
  else begin
    say "SELF-CHECK %s: cache requests %d <> %d exact + %d subsumed + %d miss"
      name s.requests s.hits s.subsumed_hits s.misses;
    1
  end

let fail_session (o : Served.outcome) why =
  say "FAIL session %d (task %d): %s" o.session.index o.session.task.id why;
  1

(* Counts that must agree with the server's own: every applied line
   and every busy refusal the clients saw. *)
let server_self_check ~path outcomes =
  let applied =
    List.length
      (List.filter (fun (c : Served.call) -> c.ok) (calls outcomes Served.is_line))
  in
  let busy = List.fold_left (fun a (o : Served.outcome) -> a + o.busy) 0 outcomes in
  match call_once ~path P.Status with
  | Some (P.Stats { ops; busy_rejections; _ })
    when ops = applied && busy_rejections = busy ->
      0
  | Some (P.Stats { ops; busy_rejections; _ }) ->
      say "SELF-CHECK server counted %d op(s), %d busy; clients saw %d, %d" ops
        busy_rejections applied busy;
      1
  | _ ->
      say "SELF-CHECK status request failed";
      1

(* The server process does not expose its cache statistics, so the
   cache identity is checked on the serial replay's cache. *)
let serve_checks catalog outcomes =
  Materialize.reset_cache ();
  let failures =
    List.fold_left
      (fun acc (o : Served.outcome) ->
        acc
        +
        match o.final with
        | None -> fail_session o "no rows answer"
        | Some t ->
            let r = serial_replay catalog o in
            if t.uid <> r.uid then fail_session o "final uid differs from serial replay"
            else if not (same_rows t r) then
              fail_session o "rows differ from serial replay"
            else 0)
      0 outcomes
  in
  failures + cache_identity_of "serial replay" (Materialize.cache_stats ())

(* The warm-up round that ends set-up: one session per task, played
   like the timed ones. It is the same whatever the run's seed, so
   set-up does the same work in every run. Its indices start at a
   multiple of twelve that the timed phase never reaches, so session
   [k] plays task [k] under a client id of its own. *)
let warmup_base = 12 * 100_000

let warmup_sessions =
  List.init (Array.length Schedule.tasks) (fun k ->
      Schedule.session ~seed:0 (warmup_base + k))

(* Set-up is the server's spawn-to-ping time (median of
   [setup_repeats]) plus the warm-up round. The warm-up sessions are
   checked like the timed ones but give no latency samples. *)
let serve_timed_phase args =
  let pid, path, spawn_s = setup_server args in
  let play = Served.play_socket ~path in
  let index (o : Served.outcome) = o.session.index in
  let t0 = now () in
  let warm, _ =
    Served.drive ~clients ~next:(Served.of_list warmup_sessions)
      ~play ~index
  in
  let setup_s = spawn_s +. (float_of_int (now () - t0) /. 1e9) in
  let deadline_ns = now () + int_of_float (args.seconds *. 1e9) in
  let outcomes, wall =
    Served.drive ~clients
      ~next:(Served.until_deadline ~seed:args.seed ~deadline_ns)
      ~play ~index
  in
  let self = server_self_check ~path (warm @ outcomes) in
  stop_server pid;
  (warm, outcomes, wall, setup_s, self)

(* ---- local-study ---- *)

(* Inner spans the library already records: each call's share of them
   is read as the change in the histogram's sum around the call. *)
let h_apply = H.histogram Obs.h_engine_apply
let h_derive = H.histogram Obs.h_incremental_derive
let h_full = H.histogram Obs.h_materialize_full

type probe = { apply : int; derive : int; full : int; derivations : int }

let no_probe = { apply = 0; derive = 0; full = 0; derivations = 0 }

let read_probe () =
  {
    apply = H.sum_ns h_apply;
    derive = H.sum_ns h_derive;
    full = H.sum_ns h_full;
    derivations = Obs.Metrics.value_of Obs.k_incremental_derivations;
  }

(* Self time per layer, from spans timed outside the library. A
   layer's self time is either a span timed directly ([charge]) or an
   enclosing span minus the spans inside it ([rest]). A negative rest
   means the inner spans outran the span around them: the attribution
   cannot explain that time, so it goes to [unexplained], not to the
   layer. [across] sums the rests whose spans were timed in different
   passes, which are inferred rather than seen. [total] is the
   end-to-end time being divided: the sum of the outermost spans. *)
type layers = {
  self : (string, int) Hashtbl.t;
  mutable total : int;
  mutable unexplained : int;
  mutable across : int;
}

let new_layers () =
  { self = Hashtbl.create 8; total = 0; unexplained = 0; across = 0 }

let charge l name ns =
  Hashtbl.replace l.self name
    (ns + Option.value ~default:0 (Hashtbl.find_opt l.self name))

let rest ?(across = false) l name ns =
  if ns < 0 then l.unexplained <- l.unexplained - ns
  else begin
    charge l name ns;
    if across then l.across <- l.across + ns
  end

type local_acc = {
  mutable step_ns : int list;
  mutable rows_ns : int list;
  mutable attempted : int;
  mutable failed : int;
  mutable wall : int;  (** sum of session walls, checks excluded *)
  mutable n_sessions : int;
  mutable cache : Materialize.cache_stats;
      (** summed over sessions: each starts with a cache reset *)
  layers : layers;
}

let zero_cache =
  Materialize.
    { requests = 0; hits = 0; subsumed_hits = 0; misses = 0; seeds = 0;
      evictions = 0; entries = 0 }

let local_acc () =
  { step_ns = []; rows_ns = []; attempted = 0; failed = 0; wall = 0;
    n_sessions = 0; cache = zero_cache; layers = new_layers () }

let add_cache (a : Materialize.cache_stats) (b : Materialize.cache_stats) =
  Materialize.
    {
      requests = a.requests + b.requests;
      hits = a.hits + b.hits;
      subsumed_hits = a.subsumed_hits + b.subsumed_hits;
      misses = a.misses + b.misses;
      seeds = a.seeds + b.seeds;
      evictions = a.evictions + b.evictions;
      entries = max a.entries b.entries;
    }

(* One session as the REPL runs it: cold cache, the sheet redisplayed
   after opening and after every step. With [probe], each call's time
   is split into self time per layer. *)
let local_session ~probe ~oracle catalog acc (s : Schedule.session) =
  let timed kind f =
    let p0 = if probe then read_probe () else no_probe in
    let t0 = now () in
    let r = f () in
    let dt = now () - t0 in
    if probe then begin
      let l = acc.layers in
      let p1 = read_probe () in
      let apply = p1.apply - p0.apply and full = p1.full - p0.full in
      let derive = p1.derive - p0.derive in
      l.total <- l.total + dt;
      match kind with
      | `Line ->
          charge l "engine" apply;
          charge l "materialize" full;
          if p1.derivations > p0.derivations then begin
            (* a derivation reaches a cold parent through a full
               replay nested inside it *)
            rest l "incremental" (derive - full);
            rest l "script" (dt - apply - derive)
          end
          else rest l "script" (dt - apply - full)
      | `Rows ->
          charge l "materialize" full;
          rest l "session" (dt - full)
      | `Create -> charge l "session" dt
      | `Reset -> charge l "materialize" dt
    end;
    (r, dt)
  in
  let t_start = now () in
  let (), _ = timed `Reset Materialize.reset_cache in
  let sess, _ =
    timed `Create (fun () -> Session.create ~name:s.task.base (base catalog s))
  in
  let sess = ref sess in
  let redisplay () =
    let rel, dt =
      timed `Rows (fun () ->
          let rel = Session.materialized !sess in
          ignore (Sys.opaque_identity (List.map Row.to_list (Relation.rows rel)));
          rel)
    in
    acc.rows_ns <- dt :: acc.rows_ns;
    acc.attempted <- acc.attempted + 1;
    rel
  in
  let last = ref (redisplay ()) in
  List.iter
    (fun line ->
      let r, dt = timed `Line (fun () -> Script.run_line !sess line) in
      acc.step_ns <- dt :: acc.step_ns;
      acc.attempted <- acc.attempted + 1;
      (match r with
      | Ok o -> sess := o.Script.session
      | Error msg ->
          say "FAIL session %d: %S: %s" s.index line msg;
          acc.failed <- acc.failed + 1);
      last := redisplay ())
    s.lines;
  acc.wall <- acc.wall + (now () - t_start);
  acc.n_sessions <- acc.n_sessions + 1;
  let cache = Materialize.cache_stats () in
  acc.failed <- acc.failed + cache_identity_of (Printf.sprintf "session %d" s.index) cache;
  acc.cache <- add_cache acc.cache cache;
  match oracle s.task with
  | Ok sql when Relation.equal_unordered_data (canonical s.task !last) sql -> ()
  | Ok _ ->
      say "FAIL session %d (task %d): final state differs from SQL" s.index
        s.task.id;
      acc.failed <- acc.failed + 1
  | Error msg ->
      say "FAIL task %d: SQL oracle: %s" s.task.id msg;
      acc.failed <- acc.failed + 1

(* Set-up is TPC-H generation plus view install, median of
   [setup_repeats]. *)
let local_setup wl =
  let times = Array.make setup_repeats 0. and cat = ref None in
  for k = 0 to setup_repeats - 1 do
    (* let the previous catalog go, and collect it, so that every
       build starts from the heap the first one had *)
    cat := None;
    Gc.full_major ();
    let t0 = now () in
    cat := Some (catalog wl);
    times.(k) <- Stat.ms_of_ns (now () - t0) /. 1e3
  done;
  (Option.get !cat, Stat.median times)

let local_e2e ~setup_s acc =
  {
    steps = ms_of_list acc.step_ns;
    rows = ms_of_list acc.rows_ns;
    steps_per_s =
      float_of_int (List.length acc.step_ns) /. (float_of_int acc.wall /. 1e9);
    setup_s;
    attempted = acc.attempted;
    failed = acc.failed;
  }

let local_timed_phase args catalog =
  let acc = local_acc () in
  let oracle = sql_oracle catalog in
  Array.iter (fun t -> ignore (oracle t)) Schedule.tasks;
  let deadline_ns = now () + int_of_float (args.seconds *. 1e9) in
  let next = Served.until_deadline ~seed:args.seed ~deadline_ns in
  let rec loop sessions =
    match next () with
    | None -> List.rev sessions
    | Some s ->
        local_session ~probe:false ~oracle catalog acc s;
        loop (s :: sessions)
  in
  let sessions = loop [] in
  (acc, sessions, oracle)

(* ---- the traced run ---- *)

let counters =
  [
    ("incremental.derivations", Obs.k_incremental_derivations);
    ("incremental.full_fallbacks", Obs.k_incremental_fallbacks);
    ("par.scans", Obs.k_par_scans);
    ("par.morsels", Obs.k_par_morsels);
    ("columnar.sel_rows_in", Obs.k_col_sel_rows_in);
    ("columnar.sel_rows_out", Obs.k_col_sel_rows_out);
    ("columnar.columns_materialized", Obs.k_col_columns);
  ]

(* Counts the library keeps over one pass: the Obs counters as deltas,
   the cache's own statistics since the reset that starts the pass,
   and the collector's. *)
type counts = {
  obs : (string * int) list;
  cache : Materialize.cache_stats;
  gc_minor : float;
  gc_promoted : float;
  gc_major : int;
}

let start_counts () =
  Materialize.reset_cache ();
  ( List.map (fun (_, k) -> Obs.Metrics.value_of k) counters,
    Gc.quick_stat () )

let end_counts (obs0, gc0) =
  let gc1 = Gc.quick_stat () in
  {
    obs =
      List.map2
        (fun (n, k) v0 -> (n, Obs.Metrics.value_of k - v0))
        counters obs0;
    cache = Materialize.cache_stats ();
    gc_minor = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    gc_promoted = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    gc_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

let exact_counts c =
  let s = c.cache in
  c.obs
  @ Materialize.
      [
        ("materialize.cache_requests", s.requests);
        ("materialize.cache_exact", s.hits);
        ("materialize.cache_subsumed", s.subsumed_hits);
        ("materialize.cache_misses", s.misses);
        ("materialize.cache_evictions", s.evictions);
        ("materialize.cache_entries", s.entries);
      ]

(* requests = exact + subsumed + miss, in every pass *)
let cache_identity name c = cache_identity_of name c.cache

(* Counts that differ between the served pass and its serial replay:
   these should repeat exactly, so any drift is flagged. *)
let drift a b =
  List.fold_left2
    (fun n (name, x) (_, y) ->
      if x = y then n
      else begin
        say "DRIFT %s: served %d, serial replay %d" name x y;
        n + 1
      end)
    0 (exact_counts a) (exact_counts b)

let apply_kinds =
  [
    ("select", [ "select" ]);
    ("agg", [ "aggregate" ]);
    ("group", [ "group" ]);
    ("formula", [ "formula" ]);
    ("order", [ "order"; "order-groups" ]);
  ]

(* Per-kind engine.apply latencies and full replays, from the
   histograms the library keeps (bucket estimates). *)
let histogram_metrics () =
  let p h phi = H.percentile h phi /. 1e6 in
  List.map
    (fun (name, kinds) ->
      let h =
        List.fold_left
          (fun acc k -> H.merge acc (H.histogram (Obs.h_engine_apply ^ "." ^ k)))
          (H.make name) kinds
      in
      Stat.metric ("engine.apply_ms_p99." ^ name) "ms" (p h 0.99))
    apply_kinds
  @ [
      Stat.metric "materialize.full_ms_p50" "ms" (p h_full 0.5);
      Stat.metric "materialize.full_ms_p99" "ms" (p h_full 0.99);
    ]

let count_metrics ~steps c =
  let per_step x = x /. float_of_int (max 1 steps) in
  let s = c.cache in
  List.map (fun (n, v) -> Stat.metric n "count" (float_of_int v)) (exact_counts c)
  @ [
      Stat.metric "materialize.hit_ratio" "ratio"
        (if s.requests = 0 then 0.
         else
           float_of_int (s.hits + s.subsumed_hits) /. float_of_int s.requests);
      Stat.metric "gc.minor_words_per_step" "words" (per_step c.gc_minor);
      Stat.metric "gc.promoted_words_per_step" "words" (per_step c.gc_promoted);
      Stat.metric "gc.major_collections" "count" (float_of_int c.gc_major);
      Stat.metric "gc.top_heap_mb" "MB"
        (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
        /. 1e6);
    ]

(* Prints the self time per layer; returns the unattributed and the
   cross-pass shares of the end-to-end time. *)
let attribution l =
  let share ns = float_of_int ns /. float_of_int (max 1 l.total) in
  List.iter
    (fun (name, v) ->
      say "  self time %-12s %10.1f ms  %5.1f%%" name (Stat.ms_of_ns v)
        (100. *. share v))
    (List.sort compare (List.of_seq (Hashtbl.to_seq l.self))
    @ [ ("(unexplained)", l.unexplained) ]);
  (share l.unexplained, share l.across)

let write_spans ~args ~pass rows =
  let path =
    Filename.concat run_dir
      (Printf.sprintf "spans-%s-%d-%s.tsv" (Schedule.name args.wl) args.seed pass)
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "session\tseq\tspan\tstart_ns\tdur_ns\n";
      List.iter
        (fun (s, q, name, start, dur) ->
          Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\n" s q name start dur)
        rows)

let kind_name = function
  | P.Hello _ -> "hello"
  | P.Open _ -> "open"
  | P.Line _ -> "line"
  | P.Rows -> "rows"
  | P.Status -> "status"
  | P.Ping -> "ping"
  | P.Quit -> "quit"

let zero_metrics names = List.map (fun (n, u) -> Stat.metric n u 0.) names

let serve_layer_names =
  [
    ("net.request_bytes_per_step", "bytes"); ("net.response_bytes_per_step", "bytes");
    ("net.transport_ms_p50", "ms"); ("protocol.table_encode_ms_p50", "ms");
    ("protocol.table_decode_ms_p50", "ms"); ("protocol.table_bytes_p50", "bytes");
    ("protocol.line_codec_ms_p50", "ms"); ("server.handle_line_ms_p50", "ms");
    ("server.handle_line_ms_p99", "ms"); ("server.handle_rows_ms_p50", "ms");
    ("server.busy_refusals", "count"); ("server.wait_ms_p99", "ms");
  ]

type codec = { enc_req : int; dec_req : int; enc_resp : int; dec_resp : int;
               req_bytes : int; resp_bytes : int }

(* Pass 2: the same requests straight into Server.handle, on the same
   number of caller threads. The answers are kept as the bytes the
   server wrote. *)
let handle_pass server (o : Served.outcome) =
  let conn = Server.connect server in
  let reqs = Array.map (fun (c : Served.call) -> P.encode_request c.req) o.calls in
  let answers = Array.make (Array.length reqs) "" in
  let times =
    Array.mapi
      (fun q line ->
        let t0 = now () in
        let resp = Server.handle server conn line in
        let dt = now () - t0 in
        answers.(q) <- resp;
        dt)
      reqs
  in
  (o, times, answers)

(* Pass 3: the codec on every request and on the answers of pass 2;
   each must round-trip byte for byte. *)
let codec_pass ~bad (c : Served.call) answer =
  let t0 = now () in
  let sreq = P.encode_request c.req in
  let t1 = now () in
  let dreq = P.decode_request sreq in
  let t2 = now () in
  let dresp = P.decode_response answer in
  let t3 = now () in
  let sresp = Result.map P.encode_response dresp in
  let t4 = now () in
  if dreq <> Ok c.req || sresp <> Ok answer then incr bad;
  { enc_req = t1 - t0; dec_req = t2 - t1; dec_resp = t3 - t2;
    enc_resp = t4 - t3; req_bytes = String.length sreq + 1;
    resp_bytes = String.length answer + 1 }

(* Pass 4: every request replayed serially in process, in the order
   the served pass sent them, each session in its own uid arena. *)
let engine_pass catalog (p1 : Served.outcome list) =
  let order =
    List.concat_map
      (fun (o : Served.outcome) ->
        Array.to_list (Array.mapi (fun q (c : Served.call) -> (o, q, c)) o.calls))
      p1
    |> List.sort (fun (_, _, (a : Served.call)) (_, _, b) -> compare a.start_ns b.start_ns)
  in
  List.iter (fun (o : Served.outcome) -> if o.arena > 0 then Spreadsheet.reset_uid_arena o.arena) p1;
  let state = Hashtbl.create 64 and finals = Hashtbl.create 64 in
  let times = Hashtbl.create 1024 in
  List.iter
    (fun ((o : Served.outcome), q, (c : Served.call)) ->
      let key = o.session.index in
      let in_arena f = Spreadsheet.in_uid_arena o.arena f in
      let t0 = now () in
      let table =
        match c.req with
        | P.Open b ->
            let rel = Option.get (Sheet_sql.Catalog.find catalog b) in
            Hashtbl.replace state key
              (in_arena (fun () -> Session.create ~name:b rel));
            None
        | P.Line text ->
            (match in_arena (fun () -> Script.run_line (Hashtbl.find state key) text) with
            | Ok r -> Hashtbl.replace state key r.Script.session
            | Error _ -> ());
            None
        | P.Rows ->
            let s = Hashtbl.find state key in
            let rel = in_arena (fun () -> Session.materialized s) in
            Some ((Session.current s).Spreadsheet.uid, rel,
                  List.map Row.to_list (Relation.rows rel))
        | _ -> None
      in
      Hashtbl.replace times (key, q) (c.start_ns, now () - t0);
      (* the digest is the benchmark's own work, outside the span *)
      Option.iter
        (fun (uid, rel, rows) ->
          Hashtbl.replace finals key
            { Served.uid; digest = Served.digest (columns_of rel) rows })
        table)
    order;
  (times, finals)

let trace_metrics ~unattributed ~cross_pass ~overhead ~drift =
  Stat.
    [
      metric "trace.unattributed_share" "ratio" unattributed;
      metric "trace.cross_pass_share" "ratio" cross_pass;
      metric "trace.overhead_share" "ratio" overhead;
      metric "trace.count_drift" "count" (float_of_int drift);
    ]

(* The traced run replays the first half-length stretch of the
   untraced schedule, so that its extra passes fit the run's time. *)
let half args = { args with seconds = args.seconds /. 2. }

let serve_traced args catalog =
  let warm, u_outcomes, u_wall, setup_s, self_u = serve_timed_phase (half args) in
  say "untraced phase: %d session(s) in %.2fs (set-up %.3fs)"
    (List.length u_outcomes) (float_of_int u_wall /. 1e9) setup_s;
  let sessions = List.map (fun (o : Served.outcome) -> o.session) u_outcomes in
  let index (o : Served.outcome) = o.session.index in
  let lookup = Sheet_sql.Catalog.find catalog in
  (* pass 1: the socket, with the server hosted in this process *)
  let c1 = start_counts () in
  let server = Server.create (Server.config ~max_sessions:1024 lookup) in
  let path = socket_path "trace" in
  let listener = Net.listen server ~path in
  let p1, wall1 =
    Served.drive ~clients ~next:(Served.of_list sessions)
      ~play:(Served.play_socket ~path) ~index
  in
  Net.shutdown listener;
  let served = end_counts c1 in
  let span_rows name f =
    List.concat_map
      (fun (o : Served.outcome) ->
        List.filter_map Fun.id
          (Array.to_list
             (Array.mapi
                (fun q (c : Served.call) ->
                  Option.map
                    (fun (st, d) ->
                      (o.session.index, q, name ^ "." ^ kind_name c.req, st, d))
                    (f o q c))
                o.calls)))
      p1
  in
  write_spans ~args ~pass:"1-socket"
    (span_rows "Net.Client.call" (fun _ _ c -> Some (c.start_ns, c.ns)));
  (* pass 2: the same requests into Server.handle, no socket *)
  Materialize.reset_cache ();
  let server2 = Server.create (Server.config ~max_sessions:1024 lookup) in
  let p2, _ =
    Served.drive ~clients ~next:(Served.of_list p1) ~play:(handle_pass server2)
      ~index:(fun ((o : Served.outcome), _, _) -> o.session.index)
  in
  let handle = Hashtbl.create 64 and answers = Hashtbl.create 64 in
  List.iter
    (fun ((o : Served.outcome), t, a) ->
      Hashtbl.replace handle o.session.index t;
      Hashtbl.replace answers o.session.index a)
    p2;
  write_spans ~args ~pass:"2-handle"
    (span_rows "Server.handle" (fun o q _ ->
         Some (0, (Hashtbl.find handle o.session.index).(q))));
  (* pass 3: the codec, serially, on the requests and pass 2's answers *)
  let codec = Hashtbl.create 64 and bad_codec = ref 0 in
  List.iter
    (fun (o : Served.outcome) ->
      let a = Hashtbl.find answers o.session.index in
      Hashtbl.replace codec o.session.index
        (Array.mapi (fun q c -> codec_pass ~bad:bad_codec c a.(q)) o.calls))
    p1;
  Hashtbl.reset answers;
  if !bad_codec > 0 then say "SELF-CHECK %d message(s) do not round-trip" !bad_codec;
  write_spans ~args ~pass:"3-codec"
    (span_rows "Protocol" (fun o q _ ->
         let k = (Hashtbl.find codec o.session.index).(q) in
         Some (0, k.enc_req + k.dec_req + k.enc_resp + k.dec_resp)));
  (* pass 4: serial engine replay in pass 1's arenas and order *)
  let c4 = start_counts () in
  H.reset ();
  let engine, finals4 = engine_pass catalog p1 in
  let serial = end_counts c4 in
  write_spans ~args ~pass:"4-engine"
    (span_rows "Script" (fun o q _ -> Hashtbl.find_opt engine (o.session.index, q)));
  (* per request: e2e = net + protocol + server + engine *)
  let layers = new_layers () in
  let req_bytes = ref 0 and resp_bytes = ref 0 and steps = ref 0 in
  let transport = ref [] and line_codec = ref [] and handle_line = ref [] in
  let handle_rows = ref [] and wait = ref [] and run_line = ref [] in
  let materialized = ref [] and t_enc = ref [] and t_dec = ref [] in
  let t_bytes = ref [] in
  List.iter
    (fun (o : Served.outcome) ->
      charge layers "net" o.connect_ns;
      layers.total <- layers.total + o.connect_ns;
      let h = Hashtbl.find handle o.session.index in
      let k = Hashtbl.find codec o.session.index in
      Array.iteri
        (fun q (c : Served.call) ->
          let e = snd (Hashtbl.find engine (o.session.index, q)) in
          let k = k.(q) in
          req_bytes := !req_bytes + k.req_bytes;
          resp_bytes := !resp_bytes + k.resp_bytes;
          layers.total <- layers.total + c.ns;
          rest ~across:true layers "net" (c.ns - h.(q) - k.enc_req - k.dec_resp);
          charge layers "protocol" (k.enc_req + k.dec_req + k.enc_resp + k.dec_resp);
          rest ~across:true layers "server" (h.(q) - e - k.dec_req - k.enc_resp);
          charge layers "engine" e;
          match c.req with
          | P.Line _ ->
              incr steps;
              transport := (c.ns - h.(q)) :: !transport;
              line_codec := (k.enc_req + k.dec_req + k.enc_resp + k.dec_resp) :: !line_codec;
              handle_line := h.(q) :: !handle_line;
              wait := (h.(q) - e) :: !wait;
              run_line := e :: !run_line
          | P.Rows ->
              handle_rows := h.(q) :: !handle_rows;
              materialized := e :: !materialized;
              t_enc := k.enc_resp :: !t_enc;
              t_dec := k.dec_resp :: !t_dec;
              t_bytes := k.resp_bytes :: !t_bytes
          | _ -> ())
        o.calls)
    p1;
  let unattributed, cross_pass = attribution layers in
  let overhead = 1. -. (float_of_int u_wall /. float_of_int wall1) in
  let drift = drift served serial in
  (* correctness: pass 1 against its serial replay, and the untraced
     phase against pass 1 *)
  let finals1 = Hashtbl.create 64 in
  List.iter (fun (o : Served.outcome) -> Hashtbl.replace finals1 o.session.index o) p1;
  let checks =
    List.fold_left
      (fun acc (o : Served.outcome) ->
        acc
        +
        match (o.final, Hashtbl.find_opt finals4 o.session.index) with
        | Some t, Some r when t.uid = r.uid && same_rows t r -> 0
        | _ -> fail_session o "served rows differ from serial replay")
      0 p1
    + List.fold_left
        (fun acc (u : Served.outcome) ->
          let local uid = uid land 0xFFFF_FFFF in
          acc
          +
          match (u.final, (Hashtbl.find finals1 u.session.index).final) with
          | Some a, Some b when local a.uid = local b.uid && same_rows a b -> 0
          | _ -> fail_session u "untraced rows differ from the traced pass")
        0 u_outcomes
    + self_u
    + !bad_codec
    + cache_identity "served" served
    + cache_identity "serial" serial
  in
  let all = calls (warm @ u_outcomes @ p1) (fun _ -> true) in
  let failed = List.length (List.filter Served.failed all) + checks in
  let ms l = ms_of_list !l in
  let per_step x = float_of_int x /. float_of_int (max 1 !steps) in
  let metrics =
    Stat.
      [
        metric "net.request_bytes_per_step" "bytes" (per_step !req_bytes);
        metric "net.response_bytes_per_step" "bytes" (per_step !resp_bytes);
        metric "net.transport_ms_p50" "ms" (median (ms transport));
        metric "protocol.table_encode_ms_p50" "ms" (median (ms t_enc));
        metric "protocol.table_decode_ms_p50" "ms" (median (ms t_dec));
        metric "protocol.table_bytes_p50" "bytes"
          (median (Array.of_list (List.map float_of_int !t_bytes)));
        metric "protocol.line_codec_ms_p50" "ms" (median (ms line_codec));
        metric "server.handle_line_ms_p50" "ms" (median (ms handle_line));
        metric "server.handle_line_ms_p99" "ms" (percentile (ms handle_line) 0.99);
        metric "server.handle_rows_ms_p50" "ms" (median (ms handle_rows));
        metric "server.busy_refusals" "count"
          (float_of_int (List.fold_left (fun a (o : Served.outcome) -> a + o.busy) 0 p1));
        metric "server.wait_ms_p99" "ms" (percentile (ms wait) 0.99);
        metric "script.run_line_ms_p50" "ms" (median (ms run_line));
        metric "script.run_line_ms_p99" "ms" (percentile (ms run_line) 0.99);
        metric "session.materialized_ms_p50" "ms" (median (ms materialized));
      ]
    @ histogram_metrics ()
    @ count_metrics ~steps:!steps served
    @ trace_metrics ~unattributed ~cross_pass ~overhead ~drift
  in
  (failed = 0, List.length all, failed, metrics)

let local_traced args =
  let catalog = catalog args.wl in
  let c_u = start_counts () in
  let acc_u, sessions, oracle = local_timed_phase (half args) catalog in
  let untraced = { (end_counts c_u) with cache = acc_u.cache } in
  say "untraced phase: %d session(s), %d step(s) in %.2fs" acc_u.n_sessions
    (List.length acc_u.step_ns) (float_of_int acc_u.wall /. 1e9);
  let acc = local_acc () in
  let c = start_counts () in
  H.reset ();
  List.iter (local_session ~probe:true ~oracle catalog acc) sessions;
  let traced = { (end_counts c) with cache = acc.cache } in
  let unattributed, cross_pass = attribution acc.layers in
  let overhead = 1. -. (float_of_int acc_u.wall /. float_of_int acc.wall) in
  let drift = drift untraced traced in
  let steps = Array.of_list (List.map Stat.ms_of_ns acc.step_ns) in
  let rows = Array.of_list (List.map Stat.ms_of_ns acc.rows_ns) in
  let metrics =
    (* Net, Protocol and Server are bypassed in process *)
    zero_metrics serve_layer_names
    @ Stat.
        [
          metric "script.run_line_ms_p50" "ms" (median steps);
          metric "script.run_line_ms_p99" "ms" (percentile steps 0.99);
          metric "session.materialized_ms_p50" "ms" (median rows);
        ]
    @ histogram_metrics ()
    @ count_metrics ~steps:(Array.length steps) traced
    @ trace_metrics ~unattributed ~cross_pass ~overhead ~drift
  in
  let failed = acc_u.failed + acc.failed in
  (failed = 0, acc_u.attempted + acc.attempted, failed, metrics)

(* ---- command line ---- *)

let fingerprint args =
  let module J = Sheet_obs.Obs_json in
  J.to_string
    (J.Obj
       [
         ("cores", J.Int (Domain.recommended_domain_count ()));
         ("par_domains", J.Int (Par.domain_count ()));
         ( "SHEETMUSIQ_DOMAINS",
           J.String (Option.value ~default:"" (Sys.getenv_opt "SHEETMUSIQ_DOMAINS")) );
         ("ocaml", J.String Sys.ocaml_version);
         ("commit", J.String args.commit);
         ("workload", J.String (Schedule.name args.wl));
         ("seed", J.Int args.seed);
         ("sf", J.Float (Schedule.scale_factor args.wl));
         ("seconds", J.Float args.seconds);
         ("trace", J.Bool args.trace);
       ])

let parse () =
  let wl = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let server = ref "_build/default/bin/sheetserved.exe" and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string wl, "NAME serve-study|local-study");
      ("--seed", Arg.Set_int seed, "N session seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--server", Arg.Set_string server, "PATH the sheetserved binary");
      ("--commit", Arg.Set_string commit, "ID source revision, for the record");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "sheetbench --workload NAME --seed N --seconds S --trace 0|1";
  match Schedule.workload_of_string !wl with
  | None ->
      prerr_endline ("sheetbench: unknown workload " ^ !wl);
      exit 2
  | Some w ->
      { wl = w; seed = !seed; seconds = !seconds; trace = !trace = 1;
        server = !server; commit = !commit }

let () =
  let args = parse () in
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  say "fingerprint %s" (fingerprint args);
  let correct, attempted, failed, metrics =
    match (Schedule.served args.wl, args.trace) with
    | true, false ->
        let catalog = catalog args.wl in
        let warm, outcomes, wall, setup_s, self = serve_timed_phase args in
        let checks = self + serve_checks catalog (warm @ outcomes) in
        let e = serve_e2e ~setup_s ~wall ~check_failures:checks ~warm outcomes in
        report_e2e args.wl e;
        (e.failed = 0, e.attempted, e.failed, e2e_metrics e)
    | false, false ->
        let catalog, setup_s = local_setup args.wl in
        let acc, _, _ = local_timed_phase args catalog in
        let e = local_e2e ~setup_s acc in
        report_e2e args.wl e;
        (e.failed = 0, e.attempted, e.failed, e2e_metrics e)
    | true, true -> serve_traced args (catalog args.wl)
    | false, true -> local_traced args
  in
  if args.trace then
    List.iter
      (fun (m : Stat.metric) -> say "  %-36s %16.4f %s" m.name m.value m.unit_)
      metrics;
  print_endline (Stat.json_of_result ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)
