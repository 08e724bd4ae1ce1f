(* The solve workloads.  A solve makes the public calls
   [Driver.Harness.run_distributed] makes, where it makes them — artifact
   lookup, then [Driver.Simulate.run_spmd_par ~program] with
   [Driver.Domain.scatter_field] inside each rank's [make_args] and
   [Driver.Domain.gather_interior] inside its [collect] — but without the
   harness's interpreted serial oracle on every call: each gathered
   interior is checked bitwise against the hand loop of [Reference]
   instead.  Each call is timed from outside, here. *)

open Interp

type spec = { kernel : Reference.kernel; n : int; steps : int; ranks : int }

let program spec =
  Programs.devito ~kind: (Reference.kind spec.kernel) ~dims: 2
    ~so: (Reference.space_order spec.kernel) ~n: spec.n ~steps: spec.steps ()

let target spec = Programs.solve_target ~ranks: spec.ranks
let point_updates spec = float_of_int (spec.n * spec.n * spec.steps)
let mpts spec wall_s = point_updates spec /. wall_s /. 1e6

let describe spec =
  Printf.sprintf "%s %dx%d x %d steps on %d rank(s)"
    (Reference.kernel_name spec.kernel) spec.n spec.n spec.steps spec.ranks

(* Everything a solve needs, read off the lowered module the way the
   harness reads it. *)
type prepared = {
  spec : spec;
  func : string;
  lowered : Ir.Op.t;
  program : Executor.shared;
  grid : int list;
  local_bounds : Ir.Typesys.bound list;
  interior : int list;
  origin : int list;
  globals : Rtval.buffer list;  (** initial global fields; only read *)
  gathered : Rtval.buffer list;  (** gather targets, one per result *)
}

let globals_for ~seed m func =
  List.map (Driver.Harness.global_field ~seed) (Driver.Harness.field_args m func)

(* [globals] are the initial global fields ([globals_for]); the lowered
   module and its compiled program come from the artifact layer or, in a
   traced chain, from the passes run one by one. *)
let prepare_with ~globals spec m ~lowered ~program =
  let func = Driver.Harness.default_func m in
  let fop =
    match Ir.Op.lookup_symbol lowered func with
    | Some f -> f
    | None -> failwith ("solve: function lost in lowering: " ^ func)
  in
  let grid = Driver.Domain.topology_of fop in
  let local_bounds =
    match Driver.Domain.local_field_bounds fop with
    | bs :: _ -> bs
    | [] -> failwith "solve: no localized field bounds"
  in
  {
    spec;
    func;
    lowered;
    program;
    grid;
    local_bounds;
    interior = List.map (fun parts -> spec.n / parts) grid;
    origin = List.map (fun (b : Ir.Typesys.bound) -> -b.Ir.Typesys.lo) local_bounds;
    globals;
    gathered =
      List.map
        (fun (b : Rtval.buffer) -> Rtval.alloc_buffer ~lo: b.Rtval.lo b.Rtval.shape b.Rtval.elt)
        globals;
  }

let prepare ~seed spec m (art : Service.Artifact.t) =
  prepare_with
    ~globals: (globals_for ~seed m (Driver.Harness.default_func m))
    spec m ~lowered: art.Service.Artifact.lowered ~program: art.Service.Artifact.program

let reference_inputs p = List.map Rtval.float_contents p.globals

type solved = {
  rank_scatter_s : float array;  (** each rank's scatter *)
  rank_gather_s : float array;  (** each rank's gather *)
  wall_s : float;  (** the run_spmd_par call, scatter and gather included *)
  messages : int;
  bytes : int;
  timeline : Mpi_intf.timeline_event list;  (** empty unless traced *)
}

(* Poison the gather targets so a solve that writes nothing cannot pass
   the check on a previous solve's output. *)
let poison p =
  List.iter
    (fun (b : Rtval.buffer) ->
      match b.Rtval.data with
      | Rtval.F a -> Array.fill a 0 (Array.length a) Float.nan
      | Rtval.I _ -> ())
    p.gathered

let solve ?(trace = false) ?(trace_id = 0) p =
  let ranks = p.spec.ranks in
  (* Per-rank (start, end) of the scatter and the gather; each rank's
     domain writes only its own slot. *)
  let scatter = Array.make ranks (0., 0.) and gather = Array.make ranks (0., 0.) in
  let make_args ctx =
    let rank = Mpi_par.rank ctx in
    let t0 = Clock.now () in
    let args =
      List.map
        (fun global ->
          Rtval.Rbuf
            (Driver.Harness.rebase
               (Driver.Domain.scatter_field ~global ~grid: p.grid
                  ~local_bounds: p.local_bounds ~rank)))
        p.globals
    in
    scatter.(rank) <- (t0, Clock.now ());
    args
  in
  let collect ctx _ results =
    let rank = Mpi_par.rank ctx in
    let t0 = Clock.now () in
    List.iteri
      (fun k r ->
        match r with
        | Rtval.Rbuf local ->
            Driver.Domain.gather_interior ~origin: p.origin
              ~global: (List.nth p.gathered k) ~local ~grid: p.grid
              ~interior: p.interior ~rank ()
        | _ -> ())
      results;
    gather.(rank) <- (t0, Clock.now ())
  in
  let t0 = Clock.now () in
  let comm =
    Driver.Simulate.run_spmd_par ~trace ~program: p.program ~ranks ~func: p.func ~make_args
      ~collect p.lowered
  in
  let t1 = Clock.now () in
  let per_rank name spans =
    Array.mapi
      (fun rank (a, b) ->
        Spans.record ~trace_id ~parent: "spmd.run" (Printf.sprintf "%s[rank=%d]" name rank) a b;
        b -. a)
      spans
  in
  Spans.record ~trace_id ~parent: "solve" "spmd.run" t0 t1;
  {
    rank_scatter_s = per_rank "domain.scatter" scatter;
    rank_gather_s = per_rank "domain.gather" gather;
    wall_s = t1 -. t0;
    messages = Mpi_par.total_messages comm;
    bytes = Mpi_par.total_bytes comm;
    timeline = (if trace then Mpi_par.timeline comm else []);
  }

(* Bitwise interior agreement of every gathered result with the
   reference levels. *)
let check p expected =
  List.length expected = List.length p.gathered
  && List.for_all2
       (fun e g -> fst (Reference.compare_interior p.spec.kernel ~n: p.spec.n e g))
       expected p.gathered

let get_cached spec m =
  Service.Artifact.get_cached ~executor: Programs.executor ~target: (target spec) m

(* ---------- once-per-run executor cross-check at a reduced grid ---------- *)

type oracle = {
  o_ok : bool;  (** interpreter = compiled serial = compiled distributed = hand loop, bitwise *)
  o_interp_s : float;  (** one run of the serial lowered module on the interpreter *)
  o_compiled_s : float;  (** the same run on the compiled executor *)
  o_detail : string;
}

let buffers_of rs = List.filter_map (function Rtval.Rbuf b -> Some b | _ -> None) rs

(* Both executors run the same [Cpu_sequential]-lowered module.  Each
   compiles it once, untimed; a timed run is instantiate + runf + release,
   median over [reps] runs on fresh arguments, and the first run's
   results are kept for the bitwise check. *)
let serial_runs ~reps (ex : Executor.t) ~func lowered fresh_args =
  let shared = ex.Executor.compile lowered in
  let runs =
    List.init reps (fun _ ->
        let args = fresh_args () in
        Clock.timed (fun () ->
            let inst = shared.Executor.instantiate () in
            let r = inst.Executor.runf func args in
            inst.Executor.release ();
            r))
  in
  (fst (List.hd runs), Stats.median (List.map snd runs))

let oracle_check ~seed spec =
  let m = program spec in
  let func = Driver.Harness.default_func m in
  let expected =
    Reference.run spec.kernel ~n: spec.n ~steps: spec.steps
      (List.map Rtval.float_contents (globals_for ~seed m func))
  in
  let agree bufs =
    List.length bufs = List.length expected
    && List.for_all2
         (fun e b -> fst (Reference.compare_interior spec.kernel ~n: spec.n e b))
         expected bufs
  in
  let seq = Core.Pipeline.compile Core.Pipeline.Cpu_sequential m in
  let fresh () = List.map (fun b -> Rtval.Rbuf (Driver.Harness.rebase b)) (globals_for ~seed m func) in
  let interp, interp_s = serial_runs ~reps: 3 Executor.interpreter ~func seq fresh in
  let compiled, compiled_s = serial_runs ~reps: 7 Programs.executor ~func seq fresh in
  let art, _ = get_cached spec m in
  let p = prepare ~seed spec m art in
  poison p;
  ignore (solve p);
  let ok_interp = agree (buffers_of interp) in
  let ok_compiled = agree (buffers_of compiled) in
  let ok_dist = check p expected in
  {
    o_ok = ok_interp && ok_compiled && ok_dist;
    o_interp_s = interp_s;
    o_compiled_s = compiled_s;
    o_detail =
      Printf.sprintf "interp=%b compiled-serial=%b compiled-%d-rank=%b" ok_interp
        ok_compiled spec.ranks ok_dist;
  }

(* The reduced grid the cross-check runs at: small enough for the
   interpreter, the same kernel and rank count. *)
let reduced spec =
  match spec.kernel with
  | Reference.Heat2d_so2 -> { spec with n = 32; steps = 10 }
  | Reference.Wave2d_so4 -> { spec with n = 8; steps = 200 }

(* ---------- untraced end-to-end run ---------- *)

(* Set-up: frontend build, cold artifact lookup, first instantiate — the
   time until the first time step can run.  Repeated; the cache is
   cleared before each repetition so every lookup is a cold compile. *)
let setup_once spec =
  Service.Artifact.clear ();
  let t0 = Clock.now () in
  let m = program spec in
  let t1 = Clock.now () in
  let art, flag = get_cached spec m in
  let t2 = Clock.now () in
  let inst = art.Service.Artifact.program.Executor.instantiate () in
  let t3 = Clock.now () in
  inst.Executor.release ();
  if flag <> `Miss then failwith "set-up lookup was not a cold compile";
  (m, art, t3 -. t0, t2 -. t1)

let min_setups = 21
let min_solves = 5

let fmt_ms s = Printf.sprintf "%.3f ms" (s *. 1000.)

let quartiles xs =
  String.concat "/" (List.map (fun q -> Printf.sprintf "%.2f" (Stats.quantile xs q *. 1000.)) [ 0.1; 0.25; 0.5; 0.75; 0.9 ])

(* The timed phase.  One set-up repetition precedes every solve, so the
   set-up samples are spread over the whole run instead of bunched at its
   start (a short burst of load from elsewhere on the host would shift
   them all); the set-up leaves the same artifact in the cache, so the
   solve's own lookup is still a hit.  A full major collection follows
   each set-up, so every solve starts from the same heap state instead of
   paying for an unpredictable share of earlier garbage (the peak RSS
   otherwise moves by a tenth between runs).  The time between solves —
   set-up and collection — is kept out of the elapsed time [serve_rps]
   divides by. *)
let run_e2e ~seed ~seconds spec : Metrics.outcome =
  let setups = ref [] and between = ref 0. in
  let setup () =
    let (m, art, s, c), dt = Clock.timed (fun () -> setup_once spec) in
    setups := (s, c) :: !setups;
    between := !between +. dt;
    (m, art)
  in
  let m, art = setup () in
  let p = prepare ~seed spec m art in
  let expected = Reference.run spec.kernel ~n: spec.n ~steps: spec.steps (reference_inputs p) in
  let oracle = oracle_check ~seed (reduced spec) in
  let attempted = ref 1 and failed = ref (if oracle.o_ok then 0 else 1) in
  let walls = ref [] and latencies = ref [] in
  let t_start = Clock.now () in
  let deadline = t_start +. seconds in
  between := 0.;
  (* Attempts, not successes, bound the loop: a solve that keeps failing
     must not keep the run going. *)
  while Clock.now () < deadline || !attempted <= min_solves do
    ignore (setup ());
    between := !between +. snd (Clock.timed Gc.full_major);
    incr attempted;
    poison p;
    match
      let t0 = Clock.now () in
      let art', flag = get_cached spec m in
      if flag <> `Hit || art'.Service.Artifact.digest <> art.Service.Artifact.digest then
        failwith "timed solve missed the artifact cache";
      let s = solve p in
      (s, Clock.now () -. t0)
    with
    | s, latency ->
        walls := s.wall_s :: !walls;
        latencies := latency :: !latencies;
        if not (check p expected) then incr failed
    | exception e ->
        incr failed;
        prerr_endline ("solve failed: " ^ Printexc.to_string e)
  done;
  let elapsed = Clock.now () -. t_start -. !between in
  while List.length !setups < min_setups do
    ignore (setup ())
  done;
  let setup_s = Stats.median (List.map fst !setups) in
  let cold_s = List.map snd !setups in
  let n = List.length !walls in
  let tail_p, tail_v = Stats.tail !latencies in
  {
    Metrics.attempted = !attempted;
    failed = !failed;
    values =
      [
        ("setup_s", setup_s);
        ("solve_mpts_s", mpts spec (Stats.median !walls));
        ("serve_rps", float_of_int n /. elapsed);
        ("serve_p50_ms", Stats.median !latencies *. 1000.);
        ("serve_p99_ms", tail_v *. 1000.);
        ("cold_p50_ms", Stats.median cold_s *. 1000.);
        ("peak_rss_mb", Metrics.peak_rss_mb ());
      ];
    notes =
      [
        "workload: " ^ describe spec ^ ", Par substrate, compiled executor, slice2d/faces, overlap on, untiled";
        Printf.sprintf "setup: median of %d (frontend build + cold Artifact.get_cached + first instantiate) = %s"
          (List.length !setups) (fmt_ms setup_s);
        Printf.sprintf "solves: %d in %.2f s of solve time (set-ups excluded); solve wall = run_spmd_par, per-rank scatter and gather inside, median %s (p10/p25/p50/p75/p90 %s ms)"
          n elapsed (fmt_ms (Stats.median !walls)) (quartiles !walls);
        Printf.sprintf "serve_p50_ms/serve_p99_ms here: per-solve latency (artifact hit + solve); tail is p%d of %d samples (highest percentile with >= 10 samples above)"
          tail_p n;
        Printf.sprintf "cold_p50_ms here: cold Artifact.get_cached, median of %d" (List.length cold_s);
        Printf.sprintf "oracle at %s: %s" (describe (reduced spec)) oracle.o_detail;
        Printf.sprintf "error_rate = %d/%d = %g" !failed !attempted
          (float_of_int !failed /. float_of_int !attempted);
      ];
  }

(* ---------- traced run: every layer timed ---------- *)

(* One traced chain, every layer a call timed on its own.  Its set-up half
   makes the calls a solve's set-up makes: frontend build; what a cold
   [Service.Artifact.get_cached] does — digest, each pass of the target's
   pipeline, verification, executor compile, and the digest
   [Service.Artifact.compile] takes again; and instantiate.  A full
   chain goes on to the solve, the run_spmd_par call with each rank's
   scatter and gather inside it.  The set-up half's layers are reconciled
   against untraced [setup_s] samples; the solve's against its own wall
   (see [phases_of]). *)
type chain = {
  c_layers : (string * float) list;
      (** layer -> seconds, chain order; the layers do not overlap *)
  c_ops_out : (string * int) list;  (** pass -> op count after it *)
  c_solve : solved option;  (** the solve half; none for a compile replay *)
  c_ok : bool;
  c_instantiate_us : float;
      (** one instantiate+release, averaged over a loop after the chain:
          a single call is below the clock's resolution *)
}

let sum_layers ?(except = []) c =
  List.fold_left (fun acc (n, s) -> if List.mem n except then acc else acc +. s) 0. c.c_layers

(* The share of an untraced end-to-end figure that the timed layers
   making it up leave unattributed, in percent.  A gap beyond the bound is
   reported, not counted as a failed operation: it says how far the
   benchmark's attribution reaches, not whether the program's output is
   right. *)
let gap_pct ~e2e ~layers = 100. *. (e2e -. layers) /. e2e
let reconciled pct = Float.abs pct <= Metrics.reconciliation_bound_pct

(* Of two gaps, the one further from zero. *)
let worst_gap a b = if Float.abs a >= Float.abs b then a else b

(* The compile half of a chain, shared with serve-mix's cold replay:
   passes one by one, verify, executor compile, instantiate. *)
let compile_layers ~trace_id ~parent target m =
  let span name f = Spans.timed ~trace_id ~parent name f in
  let lowered, passes =
    List.fold_left
      (fun (m, acc) (pass : Ir.Pass.t) ->
        let m', dt = span ("pass." ^ pass.Ir.Pass.name) (fun () -> pass.Ir.Pass.run m) in
        (m', (pass.Ir.Pass.name, dt, Ir.Op.count_ops m') :: acc))
      (m, [])
      (Core.Pipeline.pipeline_for target).Ir.Pass.passes
  in
  let passes = List.rev passes in
  let (), verify_s =
    span "ir.verify" (fun () -> Ir.Verifier.verify ~checks: Core.Registry.checks lowered)
  in
  let program, compile_s =
    span "exec.compile" (fun () -> Programs.executor.Executor.compile lowered)
  in
  let (), inst_s =
    span "exec.instantiate" (fun () ->
        let inst = program.Executor.instantiate () in
        inst.Executor.release ())
  in
  ( lowered,
    program,
    List.map (fun (n, dt, _) -> ("pass." ^ n, dt)) passes
    @ [ ("ir.verify", verify_s); ("exec.compile", compile_s); ("exec.instantiate", inst_s) ],
    List.map (fun (n, _, ops) -> (n, ops)) passes )

let instantiate_us (program : Executor.shared) =
  let loops = 10_000 in
  let per_loop =
    Stats.median
      (List.init 5 (fun _ ->
           snd
             (Clock.timed (fun () ->
                  for _ = 1 to loops do
                    let inst = program.Executor.instantiate () in
                    inst.Executor.release ()
                  done))))
  in
  per_loop /. float_of_int loops *. 1e6

let setup_chain ~trace_id spec =
  let m, build_s =
    Spans.timed ~trace_id ~parent: "chain" "frontend.build" (fun () -> program spec)
  in
  let target = target spec in
  let digest () = Service.Artifact.digest_of ~executor: Programs.executor ~target m in
  let _, digest_s = Spans.timed ~trace_id ~parent: "chain" "artifact.digest" digest in
  let lowered, program, compile_layers, ops_out =
    compile_layers ~trace_id ~parent: "chain" target m
  in
  let _, redigest_s =
    Spans.timed ~trace_id ~parent: "chain" "artifact.compile.digest" digest
  in
  ( m,
    lowered,
    {
      c_instantiate_us = instantiate_us program;
      c_layers =
        (("frontend.build", build_s) :: ("artifact.digest", digest_s) :: compile_layers)
        @ [ ("artifact.compile.digest", redigest_s) ];
      c_ops_out = ops_out;
      c_solve = None;
      c_ok = true;
    },
    program )

let chain ~trace_id ~globals ~expected spec =
  let t0 = Clock.now () in
  let m, lowered, c, program = setup_chain ~trace_id spec in
  let p = prepare_with ~globals spec m ~lowered ~program in
  let s = solve ~trace_id p in
  Spans.record ~trace_id "chain" t0 (Clock.now ());
  { c with c_layers = c.c_layers @ [ ("spmd.run", s.wall_s) ]; c_solve = Some s; c_ok = check p expected }

let layer_median chains name =
  Stats.median (List.map (fun c -> List.assoc name c.c_layers) chains)

(* Per-layer metrics of the compile half, as medians over chains. *)
let compile_metrics chains =
  List.concat_map
    (fun pass ->
      let ms = List.filter_map (fun c -> List.assoc_opt ("pass." ^ pass) c.c_layers) chains in
      let ops =
        List.filter_map
          (fun c -> Option.map float_of_int (List.assoc_opt pass c.c_ops_out))
          chains
      in
      (* A pass absent from a target's pipeline (overlap off) costs 0. *)
      [
        ("pass." ^ pass ^ ".ms", if ms = [] then 0. else Stats.median ms *. 1000.);
        ("pass." ^ pass ^ ".ops_out", if ops = [] then 0. else Stats.median ops);
      ])
    Metrics.pass_names
  @ [
      ("ir.verify_ms", layer_median chains "ir.verify" *. 1000.);
      ("exec.compile_ms", layer_median chains "exec.compile" *. 1000.);
      ("exec.instantiate_us", Stats.median (List.map (fun c -> c.c_instantiate_us) chains));
    ]

(* Per-rank phase split of one traced solve, from the substrate timeline
   through Obs.Analysis, and the share of the solve wall its layers leave
   unattributed: each rank's scatter, timeline span (first to last MPI
   event) and gather run one after another in that rank's domain, so the
   slowest rank's sum is what the layers cover; domain start-up,
   instantiate, join and compute outside the first and last event are
   what they do not. *)
type phases = {
  compute : float;
  pack : float;
  wait : float;
  unpack : float;
  imbalance : float;
  overlap : float;
  critical : float;
  unattributed_pct : float;
}

let phases_of ~ranks s =
  let r = Analysis.analyze ~ranks s.timeline in
  let bd = Array.to_list r.Analysis.r_breakdown in
  let mean f = Stats.mean (List.map f bd) in
  let spans = List.map (fun b -> b.Analysis.bd_span_s) bd in
  let covered =
    List.fold_left
      (fun acc b ->
        let k = b.Analysis.bd_rank in
        Float.max acc (s.rank_scatter_s.(k) +. b.Analysis.bd_span_s +. s.rank_gather_s.(k)))
      0. bd
  in
  {
    compute = mean (fun b -> b.Analysis.bd_compute_s);
    pack = mean (fun b -> b.Analysis.bd_pack_s);
    wait = mean (fun b -> b.Analysis.bd_wait_s);
    unpack = mean (fun b -> b.Analysis.bd_unpack_s);
    imbalance = List.fold_left Float.max 0. spans /. Stats.mean spans;
    overlap = Option.value r.Analysis.r_overlap.Analysis.ov_efficiency ~default: 0.;
    critical = r.Analysis.r_critical_path_s;
    unattributed_pct = gap_pct ~e2e: s.wall_s ~layers: covered;
  }

type exec_result = {
  e_metrics : (string * float) list;
  e_attempted : int;
  e_failed : int;
  e_notes : string list;
  e_solve_gap_pct : float;
      (** median over the substrate-traced solves of the share of the solve
          wall its layers leave unattributed *)
}

(* The execution half of the layer metrics: untraced and substrate-traced
   solves alternated over [budget] seconds, 1-rank solves for the parallel
   speedup, the hand-loop ceiling and the reduced-grid executor
   cross-check. *)
let exec_metrics ~seed ~budget spec =
  let m = program spec in
  let art, _ = get_cached spec m in
  let p = prepare ~seed spec m art in
  let expected = Reference.run spec.kernel ~n: spec.n ~steps: spec.steps (reference_inputs p) in
  let attempted = ref 0 and failed = ref 0 in
  let run_checked ?trace ~trace_id p expected =
    incr attempted;
    poison p;
    let s = solve ?trace ~trace_id p in
    if not (check p expected) then incr failed;
    s
  in
  let untraced = ref [] and traced = ref [] in
  let t_end = Clock.now () +. (budget *. 0.6) in
  let k = ref 0 in
  while Clock.now () < t_end || List.length !traced < 3 do
    incr k;
    ignore (get_cached spec m);
    if !k mod 2 = 1 then untraced := run_checked ~trace_id: (1000 + !k) p expected :: !untraced
    else traced := run_checked ~trace: true ~trace_id: (1000 + !k) p expected :: !traced
  done;
  let phases = List.map (phases_of ~ranks: spec.ranks) !traced in
  let pmed f = Stats.median (List.map f phases) in
  let spec1 = { spec with ranks = 1 } in
  let art1, _ = get_cached spec1 m in
  let p1 = prepare ~seed spec1 m art1 in
  let singles = ref [] in
  let t_end = Clock.now () +. (budget *. 0.25) in
  while Clock.now () < t_end || List.length !singles < 3 do
    singles := run_checked ~trace_id: (2000 + List.length !singles) p1 expected :: !singles
  done;
  let ceiling =
    Stats.median
      (List.init 3 (fun _ ->
           Reference.mpts_s spec.kernel ~n: spec.n ~steps: spec.steps (reference_inputs p)))
  in
  let oracle = oracle_check ~seed (reduced spec) in
  incr attempted;
  if not oracle.o_ok then incr failed;
  let wall xs = Stats.median (List.map (fun s -> s.wall_s) xs) in
  let serial_mpts = mpts spec (wall !singles) in
  let first = List.hd !untraced in
  let per_step x = float_of_int x /. float_of_int spec.steps in
  let metrics =
    [
      ("exec.serial_mpts_s", serial_mpts);
      ("exec.ceiling_fraction", serial_mpts /. ceiling);
      ("exec.executor_speedup", oracle.o_interp_s /. oracle.o_compiled_s);
      ("domain.scatter_ms", Stats.median (List.concat_map (fun s -> Array.to_list s.rank_scatter_s) !traced) *. 1000.);
      ("domain.gather_ms", Stats.median (List.concat_map (fun s -> Array.to_list s.rank_gather_s) !traced) *. 1000.);
      ("spmd.run_s", Stats.median (List.map (fun s -> s.wall_s) !traced));
      ("mpi.messages_per_step", per_step first.messages);
      ("mpi.bytes_per_step", per_step first.bytes);
      ("mpi.parallel_speedup", wall !singles /. wall !untraced);
      ("rank.compute_s", pmed (fun x -> x.compute));
      ("rank.pack_s", pmed (fun x -> x.pack));
      ("rank.wait_s", pmed (fun x -> x.wait));
      ("rank.unpack_s", pmed (fun x -> x.unpack));
      ("rank.imbalance", pmed (fun x -> x.imbalance));
      ("overlap_efficiency", pmed (fun x -> x.overlap));
      ("critical_path_s", pmed (fun x -> x.critical));
      ("ceiling.mpts_s", ceiling);
      ("trace.overhead_pct", 100. *. ((wall !traced /. wall !untraced) -. 1.));
    ]
  in
  let rank_span = pmed (fun x -> x.compute +. x.pack +. x.wait +. x.unpack) in
  let notes =
    [
      Printf.sprintf "execution layers: %s; %d untraced + %d substrate-traced solves alternated, %d one-rank solves"
        (describe spec) (List.length !untraced) (List.length !traced) (List.length !singles);
      Printf.sprintf "premise: rank.compute_s is %.1f%% of the mean rank span; parallel speedup (1 rank / %d ranks, compiled) = %.3f"
        (100. *. pmed (fun x -> x.compute) /. rank_span) spec.ranks
        (wall !singles /. wall !untraced);
      Printf.sprintf "baselines: executor speedup = interpreter / compiled on the same cpu-sequential lowered module at %s, instantiate + run only (each compiled once, untimed; %.3f ms / %.3f ms); ceiling fraction = compiled 1-rank rate / hand loop rate"
        (describe (reduced spec)) (oracle.o_interp_s *. 1000.) (oracle.o_compiled_s *. 1000.);
      Printf.sprintf "oracle at %s: %s" (describe (reduced spec)) oracle.o_detail;
    ]
  in
  {
    e_metrics = metrics;
    e_attempted = !attempted;
    e_failed = !failed;
    e_notes = notes;
    e_solve_gap_pct = pmed (fun x -> x.unattributed_pct);
  }

(* Median wall time of [f] over [reps] calls, in seconds. *)
let median_time ~reps f = Stats.median (List.init reps (fun _ -> snd (Clock.timed f)))
