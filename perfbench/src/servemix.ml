(* The serve-mix workload: the real [stencilc --serve --socket] daemon
   under a closed loop of two client connections, each waiting for its
   reply before sending the next request, like frontends blocking on a
   compile.

   A seeded generator draws the request stream.  The population is every
   program kind (Devito heat/wave, dims 2-3, space order 2/4/8; PSyclone
   pw and traadv) paired with four distributed targets each; kinds recur
   in shuffled rounds so every kind is equally frequent, and within a
   kind the four targets are skewed 12:4:2:1.  Every block of [block]
   requests also holds [colds_per_block] never-seen programs (a Devito
   kind with a perturbed coefficient: a cold compile through the pass
   pipeline, closure compiler and store write) and one [run
   substrate=sim] request on a tiny program, which must return
   max_diff=0.  The daemon receives only the generated IR text. *)

let block = 50
let colds_per_block = 3
let variants = 4
let variant_weights = [| 12; 4; 2; 1 |]
let cache_capacity = 32

(* ---------- programs ---------- *)

type kind = {
  k_name : string;
  k_dims : int;
  k_max_ranks : int;
  k_build : float -> Ir.Op.t;  (** coefficient perturbation; PSyclone kinds ignore it *)
  k_devito : bool;
}

let kinds : kind array =
  let devito kind dims so =
    {
      k_name = Printf.sprintf "%s%dd-so%d" (Programs.kind_name kind) dims so;
      k_dims = dims;
      k_max_ranks = 8;
      k_build =
        (fun perturb ->
          Programs.devito ~perturb ~kind ~dims ~so ~n: (if dims = 2 then 32 else 16) ~steps: 4 ());
      k_devito = true;
    }
  in
  Array.of_list
    (List.concat_map
       (fun kind ->
         List.concat_map (fun dims -> List.map (devito kind dims) [ 2; 4; 8 ]) [ 2; 3 ])
       [ Programs.Heat; Programs.Wave ]
    @ [
        {
          k_name = "pw";
          k_dims = 3;
          k_max_ranks = 4;
          k_build = (fun _ -> Programs.pw ~shape: [ 16; 16; 16 ]);
          k_devito = false;
        };
        {
          k_name = "traadv";
          k_dims = 3;
          k_max_ranks = 2;
          k_build = (fun _ -> Programs.traadv ~shape: [ 16; 16; 16 ]);
          k_devito = false;
        };
      ])

let devito_kinds =
  List.filter (fun i -> kinds.(i).k_devito) (List.init (Array.length kinds) Fun.id)

(* The payload is the printed module with SSA value names renumbered in
   order of first appearance, so the bytes do not depend on how many
   values the process created before (the printer uses global ids). *)
let text_of m =
  let s = Ir.Printer.module_to_string m in
  let ids = Hashtbl.create 256 in
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '%' && !i + 1 < n && s.[!i + 1] >= '0' && s.[!i + 1] <= '9' then begin
      let j = ref (!i + 1) in
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
      let old = String.sub s !i (!j - !i) in
      let id =
        match Hashtbl.find_opt ids old with
        | Some id -> id
        | None ->
            let id = Hashtbl.length ids in
            Hashtbl.add ids old id;
            id
      in
      Buffer.add_string b (Printf.sprintf "%%%d" id);
      i := !j
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* Target templates (ranks, strategy, exchange mode, overlap, tiled),
   valid for 2-D and 3-D programs alike; ranks are capped per kind.  The
   generator draws targets from this fixed set in balanced rounds, so the
   mix of compile costs does not drift with the seed. *)
let templates =
  let open Core.Decomposition in
  [|
    (1, Slice1d, Faces, false, false);
    (2, Slice2d, Faces, true, false);
    (2, Slice1d, Diagonals, false, true);
    (4, Slice2d, Diagonals, true, false);
    (4, Slice1d, Faces, true, true);
    (8, Slice2d, Faces, false, false);
    (8, Slice1d, Diagonals, true, false);
    (2, Slice2d, Diagonals, true, true);
  |]

let target_of (k : kind) (ranks, strategy, mode, overlap, tiled) =
  Core.Pipeline.Distributed_cpu
    {
      ranks = min ranks k.k_max_ranks;
      strategy;
      mode;
      overlap;
      tiles = (if tiled then List.init k.k_dims (fun _ -> 8) else []);
    }

(* The tiny programs of the run share (16x16, 4 steps, 2 ranks).  A [run]
   request also runs the harness's interpreted oracle, so its cost grows
   with the grid; at this size the run share stays a small part of the
   daemon's time. *)
let run_n = 16
let run_steps = 4
let run_points = run_n * run_n * run_steps

let run_makers =
  [|
    (fun () -> Programs.devito ~kind: Programs.Heat ~dims: 2 ~so: 2 ~n: run_n ~steps: run_steps ());
    (fun () -> Programs.devito ~kind: Programs.Wave ~dims: 2 ~so: 4 ~n: run_n ~steps: run_steps ());
  |]

let run_programs = Array.map (fun build -> build ()) run_makers

let run_target = Programs.solve_target ~ranks: 2

(* ---------- the request stream ---------- *)

type source =
  | Population of int  (** member index *)
  | Cold of int * int * float  (** cold index, kind index, perturbation *)
  | Run of int  (** index into [run_programs] *)

type request = {
  idx : int;
  source : source;
  target : Core.Pipeline.target;
  line : string;  (** request line, without the newline *)
  payload : string;  (** IR text following the line *)
}

type member = { m_kind : int; m_target : Core.Pipeline.target; m_text : string }

type gen = {
  rng : Random.State.t;
  members : member array;  (** kind * variants + variant *)
  run_texts : string array;
  mutable round : int list;  (** kinds left in the current round *)
  mutable cold_round : int list;
  mutable slots : [ `Pop | `Cold | `Run ] list;  (** rest of the current block *)
  mutable next_idx : int;
  mutable colds : int;
  mutable runs : int;
  template_offset : int;
  lock : Mutex.t;
}

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let population ~seed =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  Array.concat
    (Array.to_list
       (Array.mapi
          (fun ki (k : kind) ->
            let text = text_of (k.k_build 0.) in
            (* The first [variants] templates of a seeded order that give
               distinct targets once ranks are capped. *)
            let targets =
              List.fold_left
                (fun acc i ->
                  let t = target_of k templates.(i) in
                  if List.length acc = variants || List.mem t acc then acc else acc @ [ t ])
                []
                (shuffle rng (List.init (Array.length templates) Fun.id))
            in
            Array.of_list
              (List.map (fun t -> { m_kind = ki; m_target = t; m_text = text }) targets))
          kinds))

let create ~seed =
  let rng = Random.State.make [| seed; 0x57e4 |] in
  {
    rng;
    template_offset = Random.State.int rng (Array.length templates);
    members = population ~seed;
    run_texts = Array.map text_of run_programs;
    round = [];
    cold_round = [];
    slots = [];
    next_idx = 0;
    colds = 0;
    runs = 0;
    lock = Mutex.create ();
  }

let line_for verb text target extra =
  Printf.sprintf "%s ir=%d %s%s" verb (String.length text) (Daemon.target_params target) extra

let weighted rng weights =
  let total = Array.fold_left ( + ) 0 weights in
  let r = Random.State.int rng total in
  let rec go i acc = if r < acc + weights.(i) then i else go (i + 1) (acc + weights.(i)) in
  go 0 0

let next_unlocked g =
  if g.slots = [] then
    g.slots <-
      shuffle g.rng
        (List.init colds_per_block (fun _ -> `Cold)
        @ (`Run :: List.init (block - colds_per_block - 1) (fun _ -> `Pop)));
  let slot = List.hd g.slots in
  g.slots <- List.tl g.slots;
  let idx = g.next_idx in
  g.next_idx <- idx + 1;
  match slot with
  | `Pop ->
      if g.round = [] then g.round <- shuffle g.rng (List.init (Array.length kinds) Fun.id);
      let k = List.hd g.round in
      g.round <- List.tl g.round;
      let v = weighted g.rng variant_weights in
      let mi = (k * variants) + v in
      let mem = g.members.(mi) in
      {
        idx;
        source = Population mi;
        target = mem.m_target;
        line = line_for "compile" mem.m_text mem.m_target "";
        payload = mem.m_text;
      }
  | `Cold ->
      if g.cold_round = [] then g.cold_round <- shuffle g.rng devito_kinds;
      let k = List.hd g.cold_round in
      g.cold_round <- List.tl g.cold_round;
      let ci = g.colds in
      g.colds <- ci + 1;
      let perturb = float_of_int (ci + 1) *. 1e-4 in
      (* One template per round of kinds, cycling through all of them. *)
      let round = ci / List.length devito_kinds in
      let target =
        target_of kinds.(k) templates.((round + g.template_offset) mod Array.length templates)
      in
      let text = text_of (kinds.(k).k_build perturb) in
      { idx; source = Cold (ci, k, perturb); target; line = line_for "compile" text target ""; payload = text }
  | `Run ->
      let r = g.runs mod Array.length run_programs in
      g.runs <- g.runs + 1;
      let text = g.run_texts.(r) in
      {
        idx;
        source = Run r;
        target = run_target;
        line = line_for "run" text run_target " substrate=sim";
        payload = text;
      }

let next g =
  Mutex.lock g.lock;
  match next_unlocked g with
  | r ->
      Mutex.unlock g.lock;
      r
  | exception e ->
      Mutex.unlock g.lock;
      raise e

(* The first [n] requests of a seed's stream, as the bytes sent. *)
let stream_bytes ~seed n =
  let g = create ~seed in
  String.concat "" (List.init n (fun _ -> let r = next g in r.line ^ "\n" ^ r.payload))

(* ---------- the closed loop ---------- *)

type record = {
  req : request;
  start_s : float;
  reply : Replies.t;
  raw : string;  (** the reply line; "" when none came back *)
}

let connection ~socket ~gen ~deadline =
  let c = Daemon.connect socket in
  let rec loop acc =
    if Clock.now () >= deadline then acc
    else
      let req = next gen in
      let t0 = Clock.now () in
      match Daemon.request c ~payload: req.payload req.line with
      | raw ->
          let t1 = Clock.now () in
          Spans.record ~trace_id: req.idx "client.request" t0 t1;
          let cls, kvs = Replies.classify raw in
          loop ({ req; start_s = t0; reply = { Replies.cls; latency_s = t1 -. t0; kvs }; raw } :: acc)
      | exception _ ->
          (* A timeout or a dropped connection: the request failed and
             this connection stops. *)
          let t1 = Clock.now () in
          { req; start_s = t0; reply = { Replies.cls = Replies.Failed; latency_s = t1 -. t0; kvs = [] }; raw = "" }
          :: acc
  in
  let rs = loop [] in
  Daemon.close c;
  rs

let clients = 2

let closed_loop ~socket ~gen ~seconds =
  let t0 = Clock.now () in
  let deadline = t0 +. seconds in
  let ds = List.init clients (fun _ -> Domain.spawn (fun () -> connection ~socket ~gen ~deadline)) in
  let records = List.concat_map Domain.join ds in
  (List.sort (fun a b -> compare a.req.idx b.req.idx) records, Clock.now () -. t0)

(* ---------- checking replies ---------- *)

(* Expected digests, computed in-process from the same text and target the
   daemon received. *)
let expected_digest =
  let memo = Hashtbl.create 256 in
  fun (req : request) ->
    let key = (req.payload, Core.Pipeline.target_fingerprint req.target) in
    match Hashtbl.find_opt memo key with
    | Some d -> d
    | None ->
        let d =
          Service.Artifact.digest_of ~executor: Programs.executor ~target: req.target
            (Ir.Parser.parse_string req.payload)
        in
        Hashtbl.add memo key d;
        d

(* A record fails on an error reply, a timeout, a wrong digest, or a run
   whose max_diff is not 0. *)
let record_ok r =
  r.reply.Replies.cls <> Replies.Failed
  && List.assoc_opt "digest" r.reply.Replies.kvs = Some (expected_digest r.req)
  &&
  match r.req.source with
  | Run _ -> (
      match List.assoc_opt "max_diff" r.reply.Replies.kvs with
      | Some d -> float_of_string_opt d = Some 0.
      | None -> false)
  | _ -> true

(* ---------- store and daemon set-up ---------- *)

let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun n ->
      let data = In_channel.with_open_bin (Filename.concat src n) In_channel.input_all in
      Out_channel.with_open_bin (Filename.concat dst n) (fun oc -> output_string oc data))
    (Sys.readdir src)

(* Pre-populate a store with half the population, in-process (untimed):
   a seeded two of each kind's four targets, so the store's make-up (and
   with it the daemon's warm-start cost) is the same for every seed.
   Those members answer [cached=store] until they are cached. *)
let prepopulate ~seed ~store members =
  let rng = Random.State.make [| seed; 0x9e9 |] in
  let chosen =
    List.concat
      (List.init (Array.length kinds) (fun k ->
           List.filteri
             (fun i _ -> i < variants / 2)
             (shuffle rng (List.init variants (fun v -> members.((k * variants) + v))))))
  in
  Unix.mkdir store 0o755;
  Service.Artifact.set_store (Some (Service.Store.create store));
  List.iter
    (fun mem ->
      ignore
        (Service.Artifact.get_cached ~executor: Programs.executor ~target: mem.m_target
           (Ir.Parser.parse_string mem.m_text)))
    chosen;
  Service.Artifact.set_store None;
  Service.Artifact.clear ();
  List.length chosen

let setup_spawns = 20

type loop_result = {
  records : record list;
  elapsed : float;
  ready_s : float list;  (** set-up samples: spawn to first [ok pong] *)
  stats : (string * string) list;
  batches : int;
  rss_mb : float;
  store_bytes : int;
}

(* Set-up samples come from start-only daemons on the pre-populated store
   itself (a daemon that only starts reads its store and writes nothing),
   half before the measured daemon and half after it, so a short burst of
   load from elsewhere on the host cannot shift them all; the measured
   daemon's own start, on a copy, is one more sample.  No store is copied
   just before a start: the copy's disk writes slowed the starts after
   the loop by 10-40% in some runs. *)
let measured_loop ~stencilc ~work ~base ~name ~seed ~seconds ~setup =
  let spawn_on store =
    Daemon.spawn ~stencilc ~socket: (Filename.concat work (name ^ ".sock")) ~store
      ~capacity: cache_capacity ~log: (Filename.concat work (name ^ ".log"))
  in
  let start_only k =
    List.init k (fun _ ->
        let d = spawn_on base in
        ignore (Daemon.shutdown d);
        d.Daemon.ready_s)
  in
  let before = start_only ((setup + 1) / 2) in
  let store = Filename.concat work (name ^ "-store") in
  copy_dir base store;
  let d = spawn_on store in
  let records, elapsed = closed_loop ~socket: d.Daemon.socket ~gen: (create ~seed) ~seconds in
  let stats = Daemon.stats d in
  let rss_mb = Metrics.peak_rss_mb ~pid: d.Daemon.pid () in
  let batches = Daemon.shutdown d in
  let store_bytes = Daemon.dir_bytes store in
  Daemon.remove_tree store;
  let after = start_only (setup / 2) in
  { records; elapsed; ready_s = before @ (d.Daemon.ready_s :: after); stats; batches; rss_mb; store_bytes }

let latencies_ms rs = List.map (fun r -> r.reply.Replies.latency_s *. 1000.) rs

let failures lr =
  List.length (List.filter (fun r -> not (record_ok r)) lr.records)
  + Daemon.int_field lr.stats "failed_hits"

let describe_population ~seed members prepop =
  let digests =
    Array.to_list members
    |> List.map (fun mem ->
           Service.Artifact.digest_of ~executor: Programs.executor ~target: mem.m_target
             (Ir.Parser.parse_string mem.m_text))
    |> List.sort_uniq compare
  in
  [
    Printf.sprintf
      "workload: serve-mix, closed loop, %d client connections, seed %d; daemon: stencilc --socket --store --cache-capacity %d"
      clients seed cache_capacity;
    Printf.sprintf
      "population: %d programs (%d kinds x %d targets), %d distinct digests, %d pre-populated in the store; cache capacity %d"
      (Array.length members) (Array.length kinds) variants (List.length digests) prepop cache_capacity;
    "kinds: " ^ String.concat ", " (Array.to_list (Array.map (fun k -> k.k_name) kinds));
    Printf.sprintf
      "request mix per block of %d: %d never-seen programs (expected cold share %.1f%%, plus first touches of members not in the store), 1 run substrate=sim (run share %.1f%%), %d population requests (targets skewed 12:4:2:1)"
      block colds_per_block
      (100. *. float_of_int colds_per_block /. float_of_int block)
      (100. /. float_of_int block) (block - colds_per_block - 1);
  ]

let class_of cls rs = List.filter (fun r -> r.reply.Replies.cls = cls) rs

let is_run r = match r.req.source with Run _ -> true | _ -> false

(* Where the client latency goes: the share of the run requests in all of
   it, and of misses, restores and hits in that of the compile requests.
   The request mix is sized against these shares (see the README). *)
let shares_note rs =
  let sum rs = List.fold_left (fun acc r -> acc +. r.reply.Replies.latency_s) 0. rs in
  let compiles = List.filter (fun r -> not (is_run r)) rs in
  let share cls = 100. *. sum (class_of cls compiles) /. sum compiles in
  Printf.sprintf
    "summed client latency: run requests %.1f%% of all; of the compile requests' share, miss %.1f%%, store %.1f%%, hit %.1f%%"
    (100. *. sum (List.filter is_run rs) /. sum rs)
    (share Replies.Miss) (share Replies.Store) (share Replies.Hit)

let run_e2e ~seed ~seconds ~stencilc ~work : Metrics.outcome =
  let members = population ~seed in
  let base = Filename.concat work "store-base" in
  let prepop = prepopulate ~seed ~store: base members in
  let lr = measured_loop ~stencilc ~work ~base ~name: "e2e" ~seed ~seconds ~setup: setup_spawns in
  let all = lr.records in
  let n = List.length all in
  let runs = List.filter (fun r -> match r.req.source with Run _ -> true | _ -> false) all in
  (* Two things would make a plain median of run rates unsteady.  The two
     run programs run at different rates, so pooled rates have two modes;
     and a run that overlaps a compile on the other connection takes 3-5x
     longer, so each program's walls have a fast and a slow mode of about
     equal weight.  The figure is therefore one run of each program at its
     lower-quartile wall (inside the fast mode): total point-updates over
     the summed walls. *)
  let run_walls i =
    List.filter_map
      (fun r ->
        match r.req.source with
        | Run j when j = i ->
            Option.bind (List.assoc_opt "wall_ms" r.reply.Replies.kvs) float_of_string_opt
        | _ -> None)
      runs
  in
  let walls = List.init (Array.length run_programs) run_walls in
  let run_mpts =
    float_of_int (run_points * List.length walls)
    /. (List.fold_left (fun acc w -> acc +. Stats.quantile w 0.25) 0. walls /. 1000.)
    /. 1e6
  in
  let cold = latencies_ms (class_of Replies.Miss all) in
  let tail_p, tail_v = Stats.tail (latencies_ms all) in
  let failed = failures lr in
  let missing_class =
    List.filter (fun c -> class_of c all = []) [ Replies.Hit; Replies.Store; Replies.Miss ]
  in
  {
    Metrics.attempted = n + 1;
    failed = failed + (if missing_class = [] then 0 else 1);
    values =
      [
        ("setup_s", Stats.median lr.ready_s);
        ("solve_mpts_s", run_mpts);
        ("serve_rps", float_of_int n /. lr.elapsed);
        ("serve_p50_ms", Stats.median (latencies_ms all));
        ("serve_p99_ms", tail_v);
        ("cold_p50_ms", Stats.median cold);
        ("peak_rss_mb", lr.rss_mb);
      ];
    notes =
      describe_population ~seed members prepop
      @ [
          Printf.sprintf "requests: %d in %.2f s; replies %s" n lr.elapsed
            (Replies.class_counts (List.map (fun r -> r.reply) all));
          shares_note all;
          Printf.sprintf "setup_s: spawn to first ok pong incl. warm start from the store, median of %d"
            (List.length lr.ready_s);
          Printf.sprintf "serve_p99_ms: p%d of %d requests; cold_p50_ms: median of %d cached=miss replies"
            tail_p n (List.length cold);
          Printf.sprintf
            "solve_mpts_s here: run replies, %d point-updates each, over the daemon-reported wall_ms; lower-quartile wall per run program (%s) summed"
            run_points
            (String.concat ", "
               (List.map
                  (fun w ->
                    Printf.sprintf "p25 %.3f ms, median %.3f ms, of %d" (Stats.quantile w 0.25)
                      (Stats.median w) (List.length w))
                  walls));
          Printf.sprintf "cold latency p10/p25/p75/p90: %s ms; setup samples: %s ms"
            (String.concat "/" (List.map (fun q -> Printf.sprintf "%.2f" (Stats.quantile cold q)) [ 0.1; 0.25; 0.75; 0.9 ]))
            (String.concat " " (List.map (fun s -> Printf.sprintf "%.2f" (s *. 1000.)) lr.ready_s));
          Printf.sprintf "peak_rss_mb: daemon VmHWM; daemon stats: %s"
            (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) lr.stats));
          Printf.sprintf "error_rate = %d/%d = %g" failed n (float_of_int failed /. float_of_int (max 1 n));
        ];
  }

(* ---------- traced run ---------- *)

(* In-process replay of one cold request, layer by layer: parse, digest,
   passes, verify, executor compile, instantiate, and the store write into
   the scratch [store]; the frontend build of the same program is timed on
   its own. *)
let replay_cold ~store r =
  let trace_id = r.req.idx in
  let build_s =
    match r.req.source with
    | Cold (_, k, perturb) -> snd (Clock.timed (fun () -> kinds.(k).k_build perturb))
    | Population mi -> snd (Clock.timed (fun () -> kinds.(mi / variants).k_build 0.))
    | Run i -> snd (Clock.timed run_makers.(i))
  in
  let t0 = Clock.now () in
  let m, parse_s =
    Spans.timed ~trace_id ~parent: "replay" "ir.parse" (fun () -> Ir.Parser.parse_string r.req.payload)
  in
  let digest, digest_s =
    Spans.timed ~trace_id ~parent: "replay" "artifact.digest" (fun () ->
        Service.Artifact.digest_of ~executor: Programs.executor ~target: r.req.target m)
  in
  let lowered, program, layers, ops_out =
    Solve.compile_layers ~trace_id ~parent: "replay" r.req.target m
  in
  (* The store write a cold compile ends with, through the public
     [Service.Store.save] with the record the artifact layer builds. *)
  let (), write_s =
    Spans.timed ~trace_id ~parent: "replay" "store.write" (fun () ->
        Service.Store.save store
          {
            Service.Store.p_digest = digest;
            p_executor = Programs.executor.Interp.Executor.exec_name;
            p_target = Core.Pipeline.target_fingerprint r.req.target;
            p_compile_s = 0.;
            p_canonical = Ir.Printer.canonical_module_string m;
            p_lowered = Ir.Printer.module_to_string lowered;
            p_lowered_bin = Some (Marshal.to_string lowered []);
          })
  in
  Spans.record ~trace_id "replay" t0 (Clock.now ());
  ( build_s,
    {
      Solve.c_instantiate_us = Solve.instantiate_us program;
      c_layers =
        (("ir.parse", parse_s) :: ("artifact.digest", digest_s) :: layers)
        @ [ ("store.write", write_s) ];
      c_ops_out = ops_out;
      c_solve = None;
      c_ok = digest = expected_digest r.req;
    } )

(* The first misses of the traced loop, each replayed in-process layer by
   layer ([replay_cold], into a scratch store) and sent again, over one
   connection, to a fresh daemon with an empty cache and store: first as a
   miss, then as a hit.  The replay and the two requests are taken in
   turn, the order alternating, so a change of load on the host between
   them cannot bias one side.  Returns (miss, hit, (build_s, chain)) per
   request. *)
let replay_misses ~stencilc ~work ~members cold =
  let store = Filename.concat work "quiet-store" in
  let replay_store = Filename.concat work "replay-store" in
  Unix.mkdir store 0o755;
  Unix.mkdir replay_store 0o755;
  let replay = replay_cold ~store: (Service.Store.create replay_store) in
  let d =
    Daemon.spawn ~stencilc ~socket: (Filename.concat work "quiet.sock") ~store
      ~capacity: cache_capacity ~log: (Filename.concat work "quiet.log")
  in
  let c = Daemon.connect d.Daemon.socket in
  let send r =
    let raw, dt = Clock.timed (fun () -> Daemon.request c ~payload: r.req.payload r.req.line) in
    let cls, kvs = Replies.classify raw in
    { r with reply = { Replies.cls; latency_s = dt; kvs }; raw }
  in
  (* Warm the fresh daemon up as far as this process is warm: it compiles
     every population member that is not among the replayed requests
     first, as this process did when it filled the store. *)
  let replayed_digests = List.map (fun r -> expected_digest r.req) cold in
  Array.iter
    (fun (mem : member) ->
      let req =
        { idx = -1; source = Population 0; target = mem.m_target;
          line = line_for "compile" mem.m_text mem.m_target ""; payload = mem.m_text }
      in
      if not (List.mem (expected_digest req) replayed_digests) then
        ignore (Daemon.request c ~payload: req.payload req.line))
    members;
  let out =
    List.mapi
      (fun i r ->
        if i mod 2 = 0 then
          let replayed = replay r in
          let miss = send r in
          (miss, send r, replayed)
        else
          let miss = send r in
          let hit = send r in
          (miss, hit, replay r))
      cold
  in
  Daemon.close c;
  ignore (Daemon.shutdown d);
  Daemon.remove_tree store;
  Daemon.remove_tree replay_store;
  out

(* Reconciliation of one replayed miss against the quiet daemon's replies
   to the same request, both gaps in percent unattributed.  The daemon's
   [compile_ms] is [Service.Artifact.compile]: passes, verify, executor
   compile and a digest, which the replay times one by one.  A miss's
   client latency is the read path a hit of the same request takes
   (transport, parse, digest, cache lookup), the queue wait, that compile
   and the store write. *)
let miss_gaps ((miss, hit) : record * record) (c : Solve.chain) =
  let compile_layers =
    Solve.sum_layers ~except: [ "ir.parse"; "exec.instantiate"; "store.write" ] c
  in
  let field k = Replies.float_field miss.reply k /. 1000. in
  ( Solve.gap_pct ~e2e: (field "compile_ms") ~layers: compile_layers,
    Solve.gap_pct ~e2e: miss.reply.Replies.latency_s
      ~layers:
        (hit.reply.Replies.latency_s +. field "queue_ms" +. field "compile_ms"
       +. List.assoc "store.write" c.Solve.c_layers) )

let replay_limit = 40

let run_traced ~seed ~seconds ~stencilc ~work : Metrics.outcome =
  let members = population ~seed in
  let base = Filename.concat work "store-base" in
  let prepop = prepopulate ~seed ~store: base members in
  let half = seconds /. 2. in
  (* The same stream twice on identical stores: untraced, then traced. *)
  Spans.enabled := false;
  let plain = measured_loop ~stencilc ~work ~base ~name: "plain" ~seed ~seconds: half ~setup: 0 in
  Spans.enabled := true;
  let lr = measured_loop ~stencilc ~work ~base ~name: "traced" ~seed ~seconds: half ~setup: 0 in
  let replies = List.map (fun r -> r.reply) lr.records in
  let service =
    Replies.service_metrics ~replies ~stats: lr.stats ~batches: lr.batches
      ~store_bytes: lr.store_bytes
  in
  (* Compile requests only: a [run] request also runs its program. *)
  let cold =
    List.filteri
      (fun i _ -> i < replay_limit)
      (List.filter
         (fun r -> match r.req.source with Run _ -> false | _ -> true)
         (class_of Replies.Miss lr.records))
  in
  let replays = replay_misses ~stencilc ~work ~members cold in
  let replayed = List.map (fun (_, _, x) -> x) replays in
  let chains = List.map snd replayed in
  let quiet = List.map (fun (miss, hit, _) -> (miss, hit)) replays in
  let quiet_failed =
    List.length
      (List.filter
         (fun (miss, hit) ->
           miss.reply.Replies.cls <> Replies.Miss || hit.reply.Replies.cls <> Replies.Hit
           || not (record_ok miss && record_ok hit))
         quiet)
  in
  let gaps = List.map2 miss_gaps quiet chains in
  let compile_gap = Stats.median (List.map fst gaps) in
  let latency_gap = Stats.median (List.map snd gaps) in
  let unattributed = Solve.worst_gap compile_gap latency_gap in
  let reconciled = Solve.reconciled compile_gap && Solve.reconciled latency_gap in
  (* What serving two connections on two cores adds to the same misses:
     no layer owns it, so it is reported beside the reconciliation. *)
  let contention k =
    100.
    *. (Stats.median (List.map2 (fun r (q, _) -> k r /. k q) cold quiet) -. 1.)
  in
  let latency r = r.reply.Replies.latency_s and compile_ms r = Replies.float_field r.reply "compile_ms" in
  let run_spec = { Solve.kernel = Reference.Heat2d_so2; n = run_n; steps = run_steps; ranks = 2 } in
  let ex = Solve.exec_metrics ~seed ~budget: 2. run_spec in
  let p50 lr = Stats.median (latencies_ms lr.records) in
  let values =
    [
      ("frontend.build_ms", Stats.median (List.map fst replayed) *. 1000.);
      ("ir.parse_ms", Solve.layer_median chains "ir.parse" *. 1000.);
      ("artifact.digest_ms", Solve.layer_median chains "artifact.digest" *. 1000.);
      ("layers.unattributed_pct", unattributed);
    ]
    @ Solve.compile_metrics chains
    @ service
    @ List.filter (fun (k, _) -> k <> "trace.overhead_pct") ex.Solve.e_metrics
    @ [ ("trace.overhead_pct", 100. *. ((p50 lr /. p50 plain) -. 1.)) ]
  in
  let missing_class =
    List.filter (fun c -> class_of c lr.records = []) [ Replies.Hit; Replies.Store; Replies.Miss ]
  in
  let replay_failed = List.length (List.filter (fun c -> not c.Solve.c_ok) chains) in
  {
    Metrics.attempted =
      List.length lr.records + List.length plain.records + List.length chains
      + (2 * List.length quiet) + ex.Solve.e_attempted + 1;
    failed =
      failures lr + failures plain + replay_failed + quiet_failed + ex.Solve.e_failed
      + if missing_class = [] then 0 else 1;
    values;
    notes =
      describe_population ~seed members prepop
      @ [
          Printf.sprintf "untraced loop: %d requests, p50 %.3f ms; traced loop: %d requests, p50 %.3f ms (%.1f s each)"
            (List.length plain.records) (p50 plain) (List.length lr.records) (p50 lr) half;
          Printf.sprintf "traced loop replies: %s; cache.failed_hits = %d"
            (Replies.class_counts replies) (Daemon.int_field lr.stats "failed_hits");
          Printf.sprintf
            "reconciliation over the first %d cached=miss requests, each replayed in-process layer by layer and sent again to a fresh daemon on one connection, first as a miss, then as a hit (medians; bound %.1f%% on each): digest + passes + verify + exec compile leave %.2f%% of the reply's compile_ms unattributed; hit latency + queue_ms + compile_ms + store write leave %.2f%% of the miss latency unattributed: %s"
            (List.length chains) Metrics.reconciliation_bound_pct compile_gap latency_gap
            (if reconciled then "within the bound" else "EXCEEDS the bound");
          Printf.sprintf
            "contention: under the closed loop the same misses change by %+.1f%% in client latency and by %+.1f%% in compile_ms against the quiet daemon (two connections and the daemon's domains share two cores); no layer owns this share of cold_p50_ms"
            (contention latency) (contention compile_ms);
          "execution layers: the run share's program replayed in-process on the Par substrate (the daemon runs it on sim)";
        ]
      @ ex.Solve.e_notes;
  }

let run ~seed ~seconds ~stencilc ~work ~traced =
  if traced then run_traced ~seed ~seconds ~stencilc ~work
  else run_e2e ~seed ~seconds ~stencilc ~work
