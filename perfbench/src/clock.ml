(* Wall-clock timing around calls into the stack.  Every layer number the
   benchmark reports comes from here: the program's own Obs sink stays
   off (its pass clock is CPU time and it is not domain-safe). *)

let now = Unix.gettimeofday

(* Run [f] and return its result with the elapsed wall time in seconds. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)
