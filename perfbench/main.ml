(* Benchmark entry point; see perfbench/README.md.

   main.exe --workload NAME --seed N --seconds S --trace 0|1
            [--stencilc PATH] [--work-dir DIR]

   Prints human-readable lines, then one JSON result line last.  With
   --trace 1 the spans recorded around every layer call are written to
   DIR/spans-NAME-seedN.json. *)

open Perfbench

let heat = { Solve.kernel = Reference.Heat2d_so2; n = 256; steps = 50; ranks = 2 }
let wave = { Solve.kernel = Reference.Wave2d_so4; n = 8; steps = 2000; ranks = 2 }
let workloads = [ "solve-heat2d"; "halo-wave2d"; "serve-mix" ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let stencilc = ref "_build/default/bin/stencilc.exe" and work_dir = ref "perfbench/_work" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " length of the timed phase");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--stencilc", Arg.Set_string stencilc, " path of the stencilc binary");
      ("--work-dir", Arg.Set_string work_dir, " scratch directory for stores, sockets, spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let traced = !trace = 1 in
  Spans.enabled := traced;
  (* Socket paths are short relative paths under the work dir: Unix-domain
     socket names are limited to 108 bytes. *)
  let work = Filename.concat !work_dir (Printf.sprintf "%d" (Unix.getpid ())) in
  Daemon.remove_tree work;
  mkdir_p work;
  let seed = !seed and seconds = !seconds and stencilc = !stencilc in
  let outcome =
    match
      match (!workload, traced) with
      | "solve-heat2d", false -> Solve.run_e2e ~seed ~seconds heat
      | "halo-wave2d", false -> Solve.run_e2e ~seed ~seconds wave
      | "solve-heat2d", true -> Traced_solve.run ~seed ~seconds ~stencilc ~work heat
      | "halo-wave2d", true -> Traced_solve.run ~seed ~seconds ~stencilc ~work wave
      | _, traced -> Servemix.run ~seed ~seconds ~stencilc ~work ~traced
    with
    | o -> o
    | exception e ->
        Daemon.reap_all ();
        Daemon.remove_tree work;
        Printf.eprintf "benchmark failed: %s\n" (Printexc.to_string e);
        exit 1
  in
  Daemon.remove_tree work;
  List.iter print_endline outcome.Metrics.notes;
  if traced then begin
    let path = Filename.concat !work_dir (Printf.sprintf "spans-%s-seed%d.json" !workload seed) in
    let n = Spans.write path in
    Printf.printf "spans: %d written to %s\n" n path
  end;
  let names = if traced then Metrics.per_layer else Metrics.end_to_end in
  List.iter
    (fun (n, u) ->
      match List.assoc_opt n outcome.Metrics.values with
      | Some v -> Printf.printf "  %-40s %14.6g %s\n" n v u
      | None -> ())
    names;
  match Metrics.result_line ~names outcome with
  | line -> print_endline line
  | exception Failure msg ->
      Printf.eprintf "benchmark failed: %s\n" msg;
      exit 1
