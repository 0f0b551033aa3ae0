(* In-memory span recorder for the traced run.

   A span is recorded around each public library call the benchmark
   makes (name, layer, start, end, parent span, request id).  Spans stay
   in memory and are written once, as Chrome trace-event JSON, when the
   run ends, so the file opens in Perfetto or chrome://tracing.  With
   tracing off, [span] is one branch and a direct call.

   Only the benchmark's own driving thread records spans: traced runs
   send their work sequentially, so a single parent stack is enough. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  req : int;  (** request id the span belongs to; -1 for set-up *)
  name : string;
  layer : string;
  start_ns : int64;
  stop_ns : int64;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let current_req = ref (-1)
let now = Fhe_util.Timer.now_ns

let span ~layer name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let req = !current_req in
    stack := id :: !stack;
    let start_ns = now () in
    let finish () =
      let stop_ns = now () in
      stack := List.tl !stack;
      recorded :=
        { id; parent; req; name; layer; start_ns; stop_ns } :: !recorded
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Run [f] as request [req]: every span opened inside carries the id. *)
let with_request req f =
  let saved = !current_req in
  current_req := req;
  Fun.protect ~finally:(fun () -> current_req := saved) f

let spans () = List.rev !recorded
let ms_of_ns d = Int64.to_float d /. 1e6
let duration_ms s = ms_of_ns (Int64.sub s.stop_ns s.start_ns)

(* A span's self time is its duration minus the part its direct
   children cover (children never overlap: one driving thread). *)
let self_ms_by_layer () =
  let all = spans () in
  let child_ms = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ms s.parent
          (duration_ms s
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_ms s.parent)))
    all;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        duration_ms s
        -. Option.value ~default:0.0 (Hashtbl.find_opt child_ms s.id)
      in
      Hashtbl.replace by_layer s.layer
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt by_layer s.layer)))
    all;
  fun layer -> Option.value ~default:0.0 (Hashtbl.find_opt by_layer layer)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Complete ("ph":"X") events; timestamps in microseconds from the
   first span. *)
let write_chrome path =
  let all = spans () in
  let t0 =
    List.fold_left (fun acc s -> if s.start_ns < acc then s.start_ns else acc)
      Int64.max_int all
  in
  let us d = Int64.to_float d /. 1e3 in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\
         \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
        (json_string s.name) (json_string s.layer)
        (us (Int64.sub s.start_ns t0))
        (us (Int64.sub s.stop_ns s.start_ns))
        s.id s.parent s.req)
    all;
  output_string oc "]}\n";
  close_out oc
