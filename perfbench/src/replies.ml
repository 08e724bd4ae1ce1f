(* Daemon replies as the client sees them, and the service-layer metrics
   read off them: reply class, client-side latency and the reply's own
   [compile_ms]/[queue_ms] fields, plus the daemon's [stats] counters. *)

type cls = Hit | Miss | Store | Failed

type t = {
  cls : cls;
  latency_s : float;  (** send to reply, client side *)
  kvs : (string * string) list;  (** the reply's key=value fields *)
}

let classify line =
  match Daemon.parse_reply line with
  | Error _ -> (Failed, [])
  | Ok kvs -> (
      match List.assoc_opt "cached" kvs with
      | Some "hit" -> (Hit, kvs)
      | Some "miss" -> (Miss, kvs)
      | Some "store" -> (Store, kvs)
      | _ -> (Failed, kvs))

let float_field r k =
  Option.bind (List.assoc_opt k r.kvs) float_of_string_opt |> Option.value ~default: Float.nan

let latencies_ms cls rs =
  List.filter_map (fun r -> if r.cls = cls then Some (r.latency_s *. 1000.) else None) rs

let count cls rs = List.length (List.filter (fun r -> r.cls = cls) rs)

(* A statistic of an empty class is reported as 0 (and the caller flags the
   missing class); everything else is measured. *)
let or_zero xs f = if xs = [] then 0. else f xs

let service_metrics ~replies ~stats ~batches ~store_bytes =
  let field k = float_of_int (Daemon.int_field stats k) in
  let misses = List.filter (fun r -> r.cls = Miss) replies in
  let queue = List.map (fun r -> float_field r "queue_ms") misses in
  let compile = List.map (fun r -> float_field r "compile_ms") misses in
  let hits = field "hits" and lookups = field "hits" +. field "misses" in
  [
    ("cache.hit_ratio", if lookups = 0. then 0. else hits /. lookups);
    ("cache.evictions", field "evictions");
    ("cache.failed_hits", field "failed_hits");
    ("store.restores", float_of_int (count Store replies));
    ("serve.store_p50_ms", or_zero (latencies_ms Store replies) Stats.median);
    ("store.bytes", float_of_int store_bytes);
    ("serve.hit_p50_ms", or_zero (latencies_ms Hit replies) Stats.median);
    ("serve.queue_p50_ms", or_zero queue Stats.median);
    ("serve.queue_p99_ms", or_zero queue (fun q -> Stats.quantile q 0.99));
    ("serve.compile_p50_ms", or_zero compile Stats.median);
    ("serve.batches", float_of_int batches);
  ]

let class_counts rs =
  Printf.sprintf "hit=%d store=%d miss=%d failed=%d" (count Hit rs) (count Store rs)
    (count Miss rs) (count Failed rs)

(* The service probe a solve workload's traced run makes with its own
   program: a daemon with a one-entry cache and a fresh store, the
   program compiled for two targets — the first cold, then repeated
   (hits), then the second cold, then the two alternated so each evicts
   the other and comes back from the store.  Each reply's digest is
   checked against [expect]. *)
let probe ~stencilc ~work ~text ~targets ~expect ~rounds =
  let store = Filename.concat work "probe-store" in
  Daemon.remove_tree store;
  Unix.mkdir store 0o755;
  let d =
    Daemon.spawn ~stencilc ~socket: (Filename.concat work "probe.sock") ~store ~capacity: 1
      ~log: (Filename.concat work "probe.log")
  in
  let c = Daemon.connect d.Daemon.socket in
  let wrong = ref 0 in
  let send target =
    let line =
      Printf.sprintf "compile ir=%d %s" (String.length text) (Daemon.target_params target)
    in
    let reply, dt = Clock.timed (fun () -> Daemon.request c ~payload: text line) in
    let cls, kvs = classify reply in
    if cls <> Failed && List.assoc_opt "digest" kvs <> Some (expect target) then incr wrong;
    { cls; latency_s = dt; kvs }
  in
  let a, b =
    match targets with [ a; b ] -> (a, b) | _ -> invalid_arg "probe: two targets"
  in
  let first = send a in
  let hits = List.init rounds (fun _ -> send a) in
  let second = send b in
  let alternating = List.concat (List.init rounds (fun _ -> [ send a; send b ])) in
  Daemon.close c;
  let stats = Daemon.stats d in
  let batches = Daemon.shutdown d in
  let store_bytes = Daemon.dir_bytes store in
  Daemon.remove_tree store;
  let replies = (first :: hits) @ (second :: alternating) in
  (replies, stats, batches, store_bytes, !wrong)
