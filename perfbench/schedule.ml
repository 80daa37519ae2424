(* Workloads and the seeded session schedule they replay.

   Session [i] of a run plays TPC-H task [i mod 12] as simulated
   subject [i + 1]: the task's direct-manipulation script with that
   subject's mistake/undo/redo detours
   ([Sheetmusiq_model.op_stream]). The program under test only ever
   sees the generated lines. *)

open Sheet_tpch
module Model = Sheet_study.Sheetmusiq_model

type workload = Serve_study | Local_study

let workloads = [ ("serve-study", Serve_study); ("local-study", Local_study) ]
let workload_of_string s = List.assoc_opt s workloads
let name wl = fst (List.find (fun (_, w) -> w = wl) workloads)
let served = function Serve_study -> true | Local_study -> false

(* serve-study: bases of at most 6,084 rows, below Par's 32k-row
   cutover, so the served path dominates. local-study: lineitem views
   of 47,880 rows, above the cutover, so operators dominate. *)
let scale_factor = function Serve_study -> 0.001 | Local_study -> 0.008

(* The TPC-H generator seed the server binary uses by default; the
   benchmark seed only varies the sessions, never the data. *)
let data_seed = 42

let tasks = Array.of_list (Tpch_tasks.all @ Tpch_tasks.extensions)

type session = { index : int; task : Tpch_tasks.t; lines : string list }

let session ~seed index =
  let task = tasks.(index mod Array.length tasks) in
  let lines =
    List.map
      (fun (st : Model.step) -> st.line)
      (Model.op_stream ~seed ~subject:(index + 1) task)
  in
  { index; task; lines }
