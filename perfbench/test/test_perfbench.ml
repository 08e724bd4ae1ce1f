(* Tests of the benchmark itself: the generator is deterministic, the
   reference loops agree with the interpreter, the printed metric names
   are exactly those of BENCHMARK.json, and a bad operation is counted as
   failed rather than dropped. *)

open Perfbench

(* ---------- generator ---------- *)

let test_stream_deterministic () =
  List.iter
    (fun seed ->
      let a = Servemix.stream_bytes ~seed 400 in
      (* Build unrelated IR in between: the payload must not depend on the
         process's value-numbering history. *)
      ignore (Programs.devito ~kind: Programs.Wave ~dims: 3 ~so: 8 ~n: 8 ~steps: 2 ());
      let b = Servemix.stream_bytes ~seed 400 in
      Alcotest.(check bool) (Printf.sprintf "seed %d repeats byte for byte" seed) true (a = b))
    [ 0; 1; 7; 42 ];
  let streams = List.map (fun seed -> Servemix.stream_bytes ~seed 400) [ 0; 1; 7; 42 ] in
  Alcotest.(check int) "different seeds give different streams" 4
    (List.length (List.sort_uniq compare streams))

let test_stream_mix () =
  let g = Servemix.create ~seed: 3 in
  let reqs = List.init (Servemix.block * 4) (fun _ -> Servemix.next g) in
  let count f = List.length (List.filter f reqs) in
  Alcotest.(check int) "cold requests per block" (4 * Servemix.colds_per_block)
    (count (fun r -> match r.Servemix.source with Servemix.Cold _ -> true | _ -> false));
  Alcotest.(check int) "run requests per block" 4
    (count (fun r -> match r.Servemix.source with Servemix.Run _ -> true | _ -> false));
  let cold_texts =
    List.filter_map
      (fun r -> match r.Servemix.source with Servemix.Cold _ -> Some r.Servemix.payload | _ -> None)
      reqs
  in
  Alcotest.(check int) "never-seen programs are distinct" (List.length cold_texts)
    (List.length (List.sort_uniq compare cold_texts))

let test_population_compiles () =
  Array.iter
    (fun (m : Servemix.member) ->
      ignore
        (Service.Artifact.compile ~executor: Programs.executor ~target: m.Servemix.m_target
           (Ir.Parser.parse_string m.Servemix.m_text)))
    (Servemix.population ~seed: 1)

(* ---------- reference loops ---------- *)

let test_reference_matches_interpreter () =
  List.iter
    (fun (kernel, n, steps) ->
      List.iter
        (fun seed ->
          let spec = { Solve.kernel; n; steps; ranks = 1 } in
          let m = Solve.program spec in
          let func = Driver.Harness.default_func m in
          let inputs = Solve.globals_for ~seed m func in
          let expected =
            Reference.run kernel ~n ~steps (List.map Interp.Rtval.float_contents inputs)
          in
          let results =
            Driver.Simulate.run_serial ~func m
              (List.map (fun b -> Interp.Rtval.Rbuf b) inputs)
          in
          List.iter2
            (fun e r ->
              let bitwise, diff =
                Reference.compare_interior kernel ~n e (Interp.Rtval.as_buffer r)
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s seed %d bitwise (max diff %g)" (Reference.kernel_name kernel)
                   seed diff)
                true bitwise)
            expected results)
        [ 0; 5 ])
    [ (Reference.Heat2d_so2, 12, 5); (Reference.Wave2d_so4, 8, 6) ]

let test_distributed_matches_reference () =
  List.iter
    (fun kernel ->
      let spec = { Solve.kernel; n = 16; steps = 4; ranks = 2 } in
      let o = Solve.oracle_check ~seed: 3 spec in
      Alcotest.(check bool) o.Solve.o_detail true o.Solve.o_ok)
    [ Reference.Heat2d_so2; Reference.Wave2d_so4 ]

(* ---------- metric names ---------- *)

(* The (name, unit) pairs of one top-level array of BENCHMARK.json. *)
let benchmark_metrics key =
  let text = In_channel.with_open_text (Sys.getenv "BENCHMARK_JSON") In_channel.input_all in
  let find sub from =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then raise Not_found
      else if String.sub text i n = sub then i
      else go (i + 1)
    in
    go from
  in
  let start = find (Printf.sprintf "\"%s\"" key) 0 in
  let stop = find "]" start in
  let field name from =
    let i = find (Printf.sprintf "\"%s\"" name) from in
    let colon = find ":" i in
    let q0 = find "\"" (colon + 1) in
    let q1 = find "\"" (q0 + 1) in
    (String.sub text (q0 + 1) (q1 - q0 - 1), q1)
  in
  let rec objects from acc =
    match find "{" from with
    | i when i < stop ->
        let name, j = field "name" i in
        let unit, k = field "unit" j in
        objects k ((name, unit) :: acc)
    | _ | (exception Not_found) -> List.rev acc
  in
  objects start []

let test_metric_names () =
  Alcotest.(check (list (pair string string)))
    "end_to_end" Metrics.end_to_end (benchmark_metrics "end_to_end");
  Alcotest.(check (list (pair string string)))
    "per_layer" Metrics.per_layer (benchmark_metrics "per_layer")

let test_result_line () =
  let values = List.map (fun (n, _) -> (n, 1.5)) Metrics.end_to_end in
  let line =
    Metrics.result_line ~names: Metrics.end_to_end
      { Metrics.attempted = 3; failed = 0; values; notes = [] }
  in
  List.iter
    (fun (n, u) ->
      Alcotest.(check bool) ("prints " ^ n) true
        (Support_str.contains line (Printf.sprintf "\"%s\": {\"value\": 1.5, \"unit\": \"%s\"}" n u)))
    Metrics.end_to_end;
  Alcotest.check_raises "a missing metric is an error, not a silent gap"
    (Failure "metrics not produced: setup_s") (fun () ->
      ignore
        (Metrics.result_line ~names: Metrics.end_to_end
           { Metrics.attempted = 3; failed = 0; values = List.tl values; notes = [] }))

(* ---------- failures are counted ---------- *)

let test_bad_solve_counted () =
  let spec = { Solve.kernel = Reference.Heat2d_so2; n = 16; steps = 3; ranks = 2 } in
  let m = Solve.program spec in
  let art, _ = Solve.get_cached spec m in
  let p = Solve.prepare ~seed: 0 spec m art in
  let expected = Reference.run spec.Solve.kernel ~n: 16 ~steps: 3 (Solve.reference_inputs p) in
  Solve.poison p;
  Alcotest.(check bool) "a solve that wrote nothing fails" false (Solve.check p expected);
  ignore (Solve.solve p);
  Alcotest.(check bool) "a good solve passes" true (Solve.check p expected);
  (match (List.hd p.Solve.gathered).Interp.Rtval.data with
  | Interp.Rtval.F a ->
      let k = (5 * 18) + 5 in
      a.(k) <- Float.succ a.(k)
  | Interp.Rtval.I _ -> ());
  Alcotest.(check bool) "one flipped bit fails" false (Solve.check p expected)

(* A wrong request sent to the real daemon comes back as a failed record,
   next to a good one, and the result line reports it. *)
let test_bad_request_counted () =
  let work = Filename.concat (Sys.getcwd ()) "bad-request" in
  Daemon.remove_tree work;
  Unix.mkdir work 0o755;
  let store = Filename.concat work "store" in
  Unix.mkdir store 0o755;
  let d =
    Daemon.spawn ~stencilc: (Sys.getenv "STENCILC") ~socket: "bad-request/s.sock" ~store
      ~capacity: 4 ~log: (Filename.concat work "log")
  in
  let g = Servemix.create ~seed: 0 in
  let rec first_population () =
    let r = Servemix.next g in
    match r.Servemix.source with Servemix.Population _ -> r | _ -> first_population ()
  in
  let good = first_population () in
  let bad = { good with Servemix.payload = "not ir"; line = "compile ir=6 target=distributed-cpu" } in
  let wrong_digest = { good with Servemix.target = Programs.solve_target ~ranks: 1 } in
  let c = Daemon.connect d.Daemon.socket in
  let send (req : Servemix.request) =
    let raw = Daemon.request c ~payload: req.Servemix.payload req.Servemix.line in
    let cls, kvs = Replies.classify raw in
    { Servemix.req; start_s = 0.; reply = { Replies.cls; latency_s = 0.001; kvs }; raw }
  in
  let records = [ send good; send bad; send wrong_digest ] in
  Daemon.close c;
  let stats = Daemon.stats d in
  ignore (Daemon.shutdown d);
  Daemon.remove_tree work;
  Alcotest.(check (list bool)) "good, error reply, wrong digest" [ true; false; false ]
    (List.map Servemix.record_ok records);
  let lr =
    { Servemix.records; elapsed = 1.; ready_s = [ d.Daemon.ready_s ]; stats; batches = 0; rss_mb = 1.; store_bytes = 0 }
  in
  let failed = Servemix.failures lr in
  Alcotest.(check int) "both bad operations counted" 2 failed;
  let line =
    Metrics.result_line ~names: [ ("serve_rps", "1/s") ]
      { Metrics.attempted = 3; failed; values = [ ("serve_rps", 3.) ]; notes = [] }
  in
  Alcotest.(check bool) "reported as failed, not dropped" true
    (Support_str.contains line "\"correct\": false, \"attempted\": 3, \"failed\": 2")

let test_tail_percentile () =
  Alcotest.(check (list int)) "highest percentile with ten samples above"
    [ 50; 75; 90; 90; 99 ]
    (List.map Stats.tail_percentile [ 39; 40; 100; 500; 1000 ])

let () =
  Alcotest.run "perfbench"
    [
      ( "generator",
        [
          Alcotest.test_case "stream is deterministic per seed" `Quick test_stream_deterministic;
          Alcotest.test_case "cold and run shares per block" `Quick test_stream_mix;
          Alcotest.test_case "population compiles" `Slow test_population_compiles;
        ] );
      ( "reference",
        [
          Alcotest.test_case "hand loops match the interpreter" `Quick
            test_reference_matches_interpreter;
          Alcotest.test_case "compiled runs match the hand loops" `Quick
            test_distributed_matches_reference;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "names match BENCHMARK.json" `Quick test_metric_names;
          Alcotest.test_case "result line" `Quick test_result_line;
          Alcotest.test_case "tail percentile rule" `Quick test_tail_percentile;
        ] );
      ( "failures",
        [
          Alcotest.test_case "bad solve is counted" `Quick test_bad_solve_counted;
          Alcotest.test_case "bad request is counted" `Quick test_bad_request_counted;
        ] );
    ]
