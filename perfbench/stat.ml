(* Sample summaries. Percentiles are nearest-rank over the raw
   samples, so a reported p99 is an observed latency. *)

let ms_of_ns ns = float_of_int ns /. 1e6

let percentile samples phi =
  let a = Array.copy samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (ceil (phi *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile xs 0.5

(* Samples strictly above the [phi] percentile — the guide for a
   reportable tail is at least ten. *)
let beyond samples phi =
  let p = percentile samples phi in
  Array.fold_left (fun acc x -> if x > p then acc + 1 else acc) 0 samples

let sum xs = Array.fold_left ( +. ) 0. xs

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_of_result ~correct ~attempted ~failed metrics =
  let module J = Sheet_obs.Obs_json in
  let finite v = if Float.is_finite v then v else 0. in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun m ->
                  ( m.name,
                    J.Obj
                      [
                        ("value", J.Float (finite m.value));
                        ("unit", J.String m.unit_);
                      ] ))
                metrics) );
       ])
