(* Order statistics over timing samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Quantile [p] in [0, 1] with linear interpolation between closest ranks
   (numpy's default); nan on an empty sample. *)
let quantile xs p =
  match xs with
  | [] -> Float.nan
  | _ ->
      let a = sorted xs in
      let n = Array.length a in
      let h = p *. float_of_int (n - 1) in
      let i = int_of_float (Float.floor h) in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* The highest of the usual reporting percentiles p75, p90 and p99 that
   still has at least ten samples above it, so a tail figure never rests on
   one or two outliers: p99 needs 1000 samples, p90 100, p75 40; below
   that the median is the only honest figure.  p95 is left out: on a
   shared host a few percent of solves are slowed by other load, and p95
   sits on the edge of that slow group, so it jumps between runs. *)
let tail_percentile n =
  List.fold_left
    (fun best p -> if n * (100 - p) >= 1000 then p else best)
    50 [ 75; 90; 99 ]

(* [tail xs] = (percentile used, its value). *)
let tail xs =
  let p = tail_percentile (List.length xs) in
  (p, quantile xs (float_of_int p /. 100.))
