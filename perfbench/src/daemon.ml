(* Driving the real [stencilc --serve --socket] daemon from outside: spawn,
   wait for the first [ok pong], send requests over Unix-domain sockets,
   read [stats], shut down and reap.  Every spawned daemon is registered so
   an early exit still kills and reaps it. *)

type t = {
  pid : int;
  socket : string;
  log : string;  (** the daemon's stdout+stderr *)
  ready_s : float;  (** spawn to first [ok pong] *)
}

let live : int list ref = ref []

let reap_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit reap_all

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

(* Seconds a reply may take before the request counts as timed out. *)
let reply_timeout_s = 60.

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO reply_timeout_s;
      { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception e ->
      Unix.close fd;
      raise e

let close c =
  (try flush c.oc with Sys_error _ -> ());
  try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Send one request line (plus an optional IR payload) and return the
   reply line. *)
let request c ?(payload = "") line =
  output_string c.oc line;
  output_char c.oc '\n';
  output_string c.oc payload;
  flush c.oc;
  input_line c.ic

(* "ok k=v k2 ..." -> Ok [(k, v); (k2, "")]; "error msg" -> Error msg. *)
let parse_reply line =
  match String.split_on_char ' ' (String.trim line) with
  | "ok" :: words ->
      Ok
        (List.map
           (fun w ->
             match String.index_opt w '=' with
             | Some i -> (String.sub w 0 i, String.sub w (i + 1) (String.length w - i - 1))
             | None -> (w, ""))
           words)
  | _ -> Error line

let spawn ~stencilc ~socket ~store ~capacity ~log =
  (try Sys.remove socket with Sys_error _ -> ());
  let stdin_r, stdin_w = Unix.pipe ~cloexec: true () in
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let t0 = Clock.now () in
  let pid =
    Unix.create_process stencilc
      [|
        stencilc; "--socket"; socket; "--store"; store; "--cache-capacity";
        string_of_int capacity;
      |]
      stdin_r out out
  in
  live := pid :: !live;
  Unix.close stdin_r;
  Unix.close stdin_w;
  Unix.close out;
  let rec wait_ready () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
        live := List.filter (( <> ) pid) !live;
        failwith (Printf.sprintf "daemon exited during start-up (see %s)" log));
    if Clock.now () -. t0 > 60. then failwith "daemon did not answer within 60 s";
    match connect socket with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        (* Fine-grained polling: a coarse interval would quantize the
           set-up time into steps of the interval. *)
        Unix.sleepf 0.0002;
        wait_ready ()
  in
  let c = wait_ready () in
  let reply = request c "ping" in
  let ready_s = Clock.now () -. t0 in
  close c;
  if String.trim reply <> "ok pong" then failwith ("unexpected ping reply: " ^ reply);
  { pid; socket; log; ready_s }

let stats d =
  let c = connect d.socket in
  let reply = request c "stats" in
  close c;
  match parse_reply reply with
  | Ok kvs -> kvs
  | Error e -> failwith ("stats failed: " ^ e)

let int_field kvs k = Option.bind (List.assoc_opt k kvs) int_of_string_opt |> Option.value ~default: 0

(* Ask the daemon to stop, reap it, and return the number of compile
   batches it reports on exit. *)
let shutdown d =
  (try
     let c = connect d.socket in
     ignore (request c "shutdown");
     close c
   with _ -> ());
  let t0 = Clock.now () in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Clock.now () -. t0 < 30. ->
        Unix.sleepf 0.005;
        reap ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  reap ();
  live := List.filter (( <> ) d.pid) !live;
  (* "// unix:<path>: served N connection(s); B compile batch(es) over J ..." *)
  let text = try In_channel.with_open_text d.log In_channel.input_all with Sys_error _ -> "" in
  let words = String.split_on_char ' ' (String.map (function '\n' -> ' ' | c -> c) text) in
  let rec find = function
    | n :: "compile" :: b :: _ when String.length b >= 5 && String.sub b 0 5 = "batch" ->
        int_of_string_opt n
    | _ :: rest -> find rest
    | [] -> None
  in
  Option.value (find words) ~default: 0

(* Request parameters selecting a distributed target, as the serve
   protocol spells them. *)
let target_params (t : Core.Pipeline.target) =
  match t with
  | Core.Pipeline.Distributed_cpu { ranks; strategy; mode; tiles; overlap } ->
      Printf.sprintf "target=distributed-cpu ranks=%d strategy=%s mode=%s overlap=%b%s"
        ranks
        (match strategy with
        | Core.Decomposition.Slice1d -> "slice1d"
        | Core.Decomposition.Slice2d -> "slice2d"
        | Core.Decomposition.Slice3d -> "slice3d"
        | _ -> invalid_arg "target_params: custom strategy")
        (match mode with
        | Core.Decomposition.Faces -> "faces"
        | Core.Decomposition.Diagonals -> "diagonals")
        overlap
        (match tiles with
        | [] -> ""
        | ts -> " tile=" ^ String.concat "," (List.map string_of_int ts))
  | _ -> invalid_arg "target_params: only distributed targets are served"

(* Total size of the regular files in a directory. *)
let dir_bytes dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
      Array.fold_left
        (fun acc n ->
          match Unix.stat (Filename.concat dir n) with
          | { Unix.st_kind = Unix.S_REG; st_size; _ } -> acc + st_size
          | _ -> acc
          | exception Unix.Unix_error _ -> acc)
        0 names

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
