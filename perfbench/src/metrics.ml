(* The metric vocabulary, mirrored by BENCHMARK.json (a test keeps the two
   in step), and the result every workload hands back to the printer. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("solve_mpts_s", "Mpts/s");
    ("serve_rps", "1/s");
    ("serve_p50_ms", "ms");
    ("serve_p99_ms", "ms");
    ("cold_p50_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

(* The passes of [Core.Pipeline.pipeline_for (Distributed_cpu _)] with
   overlap on, in pipeline order. *)
let pass_names =
  [
    "stencil-shape-inference";
    "distribute-stencil";
    "eliminate-redundant-swaps";
    "overlap-communication";
    "convert-stencil-to-loops";
    "convert-dmp-to-mpi";
    "convert-mpi-to-func";
    "canonicalize";
    "cse";
    "loop-invariant-code-motion";
    "dce";
  ]

let per_layer =
  [ ("frontend.build_ms", "ms") ]
  @ List.concat_map
      (fun p -> [ ("pass." ^ p ^ ".ms", "ms"); ("pass." ^ p ^ ".ops_out", "count") ])
      pass_names
  @ [
      ("ir.verify_ms", "ms");
      ("ir.parse_ms", "ms");
      ("artifact.digest_ms", "ms");
      ("cache.hit_ratio", "ratio");
      ("cache.evictions", "count");
      ("cache.failed_hits", "count");
      ("store.restores", "count");
      ("serve.store_p50_ms", "ms");
      ("store.bytes", "bytes");
      ("serve.hit_p50_ms", "ms");
      ("serve.queue_p50_ms", "ms");
      ("serve.queue_p99_ms", "ms");
      ("serve.compile_p50_ms", "ms");
      ("serve.batches", "count");
      ("exec.compile_ms", "ms");
      ("exec.instantiate_us", "us");
      ("exec.serial_mpts_s", "Mpts/s");
      ("exec.ceiling_fraction", "ratio");
      ("exec.executor_speedup", "x");
      ("domain.scatter_ms", "ms");
      ("domain.gather_ms", "ms");
      ("spmd.run_s", "s");
      ("mpi.messages_per_step", "count");
      ("mpi.bytes_per_step", "bytes");
      ("mpi.parallel_speedup", "x");
      ("rank.compute_s", "s");
      ("rank.pack_s", "s");
      ("rank.wait_s", "s");
      ("rank.unpack_s", "s");
      ("rank.imbalance", "ratio");
      ("overlap_efficiency", "ratio");
      ("critical_path_s", "s");
      ("ceiling.mpts_s", "Mpts/s");
      ("layers.unattributed_pct", "%");
      ("trace.overhead_pct", "%");
    ]

(* Reconciliation bound: the timed layers of an end-to-end figure should
   cover it to within this share. *)
let reconciliation_bound_pct = 5.0

type outcome = {
  attempted : int;
  failed : int;
  values : (string * float) list;
  notes : string list;  (** human-readable lines printed before the result *)
}

(* The final JSON line: every metric of [names], in order.  A metric the
   workload did not produce is a benchmark bug and raises. *)
let result_line ~(names : (string * string) list) (o : outcome) =
  let missing = List.filter (fun (n, _) -> not (List.mem_assoc n o.values)) names in
  if missing <> [] then
    failwith
      ("metrics not produced: " ^ String.concat ", " (List.map fst missing));
  let bad =
    List.filter
      (fun (n, _) -> not (Float.is_finite (List.assoc n o.values)))
      names
  in
  if bad <> [] then
    failwith ("non-finite metrics: " ^ String.concat ", " (List.map fst bad));
  let metric (n, unit) =
    Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (Spans.json_string n)
      (List.assoc n o.values) (Spans.json_string unit)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.failed = 0 && o.attempted > 0)
    o.attempted o.failed
    (String.concat ", " (List.map metric names))

(* Peak resident set (VmHWM) of a process, in MB; [pid] defaults to this
   one. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | Some p -> Printf.sprintf "/proc/%d/status" p
    | None -> "/proc/self/status"
  in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> Float.nan
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                     float_of_int kb /. 1024.)
             | _ -> None)
      |> Option.value ~default: Float.nan
