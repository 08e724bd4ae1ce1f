(* The traced run of a solve workload: every layer of the solve path timed
   on its own, the substrate timeline fed to Obs.Analysis, and the
   workload's own program sent through the daemon for the service
   layers. *)

let chains = 3
let setup_pairs = 31

let run ~seed ~seconds ~stencilc ~work (spec : Solve.spec) : Metrics.outcome =
  let m = Solve.program spec in
  let func = Driver.Harness.default_func m in
  let globals = Solve.globals_for ~seed m func in
  let expected =
    Reference.run spec.Solve.kernel ~n: spec.Solve.n ~steps: spec.Solve.steps
      (List.map Interp.Rtval.float_contents globals)
  in
  (* Full chains, equation to gathered result. *)
  let cs = List.init chains (fun i -> Solve.chain ~trace_id: (i + 1) ~globals ~expected spec) in
  let chain_failed = List.length (List.filter (fun c -> not c.Solve.c_ok) cs) in
  (* Set-up reconciliation: traced set-up chains taken in turn with
     untraced set-ups, the [setup_s] samples they are reconciled against.
     Which of the two runs first alternates, so neither always runs on
     caches the other has warmed. *)
  let pairs =
    List.init setup_pairs (fun i ->
        let untraced () =
          let _, _, setup_s, _ = Spans.untraced (fun () -> Solve.setup_once spec) in
          setup_s
        in
        let traced () =
          let _, _, c, _ = Solve.setup_chain ~trace_id: (100 + i) spec in
          c
        in
        if i mod 2 = 0 then
          let u = untraced () in
          (u, traced ())
        else
          let c = traced () in
          (untraced (), c))
  in
  let setup_chains = List.map snd pairs in
  let setup_e2e = Stats.median (List.map fst pairs) in
  let setup_layers = Stats.median (List.map (fun c -> Solve.sum_layers c) setup_chains) in
  let setup_gap = Solve.gap_pct ~e2e: setup_e2e ~layers: setup_layers in
  (* Artifact layer and parser, on the workload's own program. *)
  let target = Solve.target spec in
  let digest_s =
    Solve.median_time ~reps: 21 (fun () ->
        ignore (Service.Artifact.digest_of ~executor: Programs.executor ~target m))
  in
  let text = Ir.Printer.module_to_string m in
  let parse_s = Solve.median_time ~reps: 21 (fun () -> ignore (Ir.Parser.parse_string text)) in
  (* Execution layers; the artifact cache starts cold so its counters
     describe this workload: one miss per target, then a hit per solve. *)
  Service.Artifact.clear ();
  let before = Service.Artifact.stats () in
  let ex = Solve.exec_metrics ~seed ~budget: seconds spec in
  let solve_gap = ex.Solve.e_solve_gap_pct in
  let unattributed = Solve.worst_gap setup_gap solve_gap in
  let reconciled = Solve.reconciled setup_gap && Solve.reconciled solve_gap in
  let after = Service.Artifact.stats () in
  let hits = after.Service.Cache.hits - before.Service.Cache.hits in
  let misses = after.Service.Cache.misses - before.Service.Cache.misses in
  (* Service layers: the same program through the real daemon. *)
  let targets = [ target; Solve.target { spec with Solve.ranks = 1 } ] in
  let expect t = Service.Artifact.digest_of ~executor: Programs.executor ~target: t (Ir.Parser.parse_string text) in
  let replies, stats, batches, store_bytes, wrong =
    Replies.probe ~stencilc ~work ~text ~targets ~expect ~rounds: 10
  in
  let probe_failed = Replies.count Replies.Failed replies + wrong in
  let service =
    List.filter
      (fun (k, _) -> not (String.length k > 6 && String.sub k 0 6 = "cache."))
      (Replies.service_metrics ~replies ~stats ~batches ~store_bytes)
  in
  let values =
    [ ("frontend.build_ms", Solve.layer_median (cs @ setup_chains) "frontend.build" *. 1000.) ]
    @ Solve.compile_metrics (cs @ setup_chains)
    @ [
        ("layers.unattributed_pct", unattributed);
        ("ir.parse_ms", parse_s *. 1000.);
        ("artifact.digest_ms", digest_s *. 1000.);
        ("cache.hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)));
        ("cache.evictions", float_of_int (after.Service.Cache.evictions - before.Service.Cache.evictions));
        ("cache.failed_hits", float_of_int (after.Service.Cache.failed_hits - before.Service.Cache.failed_hits));
      ]
    @ service @ ex.Solve.e_metrics
  in
  let attempted = chains + ex.Solve.e_attempted + List.length replies in
  let failed =
    chain_failed + ex.Solve.e_failed + probe_failed
  in
  {
    Metrics.attempted;
    failed;
    values;
    notes =
      [ "traced run: " ^ Solve.describe spec ]
      @ ex.Solve.e_notes
      @ [
          Printf.sprintf
            "reconciliation (bound %.1f%% on each): set-up layers (build, digest, passes, verify, exec compile, digest again, instantiate) %.3f ms against untraced setup_s %.3f ms, medians of %d of each taken in turn, %.2f%% unattributed; solve wall against the slowest rank's scatter + timeline span + gather, median over the substrate-traced solves, %.2f%% unattributed: %s"
            Metrics.reconciliation_bound_pct (setup_layers *. 1000.) (setup_e2e *. 1000.)
            setup_pairs setup_gap solve_gap
            (if reconciled then "within the bound" else "EXCEEDS the bound");
          Printf.sprintf "in-process artifact cache: %d hit(s), %d miss(es)" hits misses;
          Printf.sprintf "service probe (own program, 2 targets, capacity 1): %s, wrong digests %d, batches %d"
            (Replies.class_counts replies) wrong batches;
        ];
  }
