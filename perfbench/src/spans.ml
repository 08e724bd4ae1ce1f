(* In-memory span recorder for the traced run.  A span is a wall-clock
   interval around one call into a layer, with the identifier it shares
   with every other span of the same solve or request and the name of the
   span that caused it.  Spans are kept in memory and written out once, at
   the end of the run; with recording off nothing is stored. *)

type span = {
  trace_id : int;
  name : string;
  parent : string option;
  start_s : float;
  end_s : float;
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : span list ref = ref []

let record ~trace_id ?parent name start_s end_s =
  if !enabled then begin
    Mutex.lock lock;
    recorded := { trace_id; name; parent; start_s; end_s } :: !recorded;
    Mutex.unlock lock
  end

(* Time [f] (always) and record it as a span (when recording is on);
   returns the result and the elapsed seconds. *)
let timed ~trace_id ?parent name f =
  let t0 = Clock.now () in
  let r = f () in
  let t1 = Clock.now () in
  record ~trace_id ?parent name t0 t1;
  (r, t1 -. t0)

let all () =
  Mutex.lock lock;
  let s = List.rev !recorded in
  Mutex.unlock lock;
  s

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Write every recorded span as a JSON array; times are seconds since the
   earliest span. *)
let write path =
  let spans = all () in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start_s) infinity spans in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"trace_id\": %d, \"name\": %s, \"parent\": %s, \"start_s\": %.9f, \"end_s\": %.9f}\n"
            (if i = 0 then "" else ",")
            s.trace_id (json_string s.name)
            (match s.parent with Some p -> json_string p | None -> "null")
            (s.start_s -. t0) (s.end_s -. t0))
        spans;
      output_string oc "]\n");
  List.length spans

(* Run [f] with recording off: the untraced samples a traced run takes
   to reconcile its layers against. *)
let untraced f =
  let was = !enabled in
  enabled := false;
  Fun.protect ~finally: (fun () -> enabled := was) f
