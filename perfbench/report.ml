(* Result accounting and output: every timed operation is an attempt,
   every failed correctness check a failure, and the last line of
   standard output is the one JSON result object. *)

type metric = { name : string; value : float; unit_ : string; samples : int }

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** first few failure messages *)
  mutable metrics : metric list;  (** reverse order of recording *)
  mutable record : (string * string) list;  (** host/parameter facts *)
}

let create () =
  { attempted = 0; failed = 0; problems = []; metrics = []; record = [] }

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let attempt r = locked (fun () -> r.attempted <- r.attempted + 1)

let fail r msg =
  locked (fun () ->
      r.failed <- r.failed + 1;
      if List.length r.problems < 20 then r.problems <- msg :: r.problems)

(* One attempted check: counts an attempt, and a failure when [ok] is
   false. *)
let check r ok msg =
  attempt r;
  if not ok then fail r (msg ())

let metric r ?(samples = 1) name unit_ value =
  r.metrics <- { name; value; unit_; samples } :: r.metrics

let count r name v = metric r name "count" (float_of_int v)
let note r key value = r.record <- (key, value) :: r.record

(* ---- statistics ---- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest-rank percentile *)
let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (k - 1)))

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* CPU time of this process so far (user + system, every thread), ms.
   The kernel leaves out the time the hypervisor steals from the guest's
   vCPUs; wall-clock timings include it. *)
let cpu_ms () =
  let t = Unix.times () in
  1e3 *. (t.Unix.tms_utime +. t.Unix.tms_stime)

(* Set-up runs [setup_reps] times from a collected heap and returns the
   last set-up, kept for measuring.  It records setup_s, the median CPU
   time of a set-up in seconds, and notes the median wall time.
   [discard] releases each earlier set-up. *)
let setup_reps = 3

let setup r ?(discard = ignore) setup =
  let rec go k cpu wall =
    Gc.full_major ();
    let cpu0 = cpu_ms () in
    let st, ms = Fhe_util.Timer.time setup in
    let cpu = (cpu_ms () -. cpu0) :: cpu and wall = ms :: wall in
    if k = 1 then begin
      metric r ~samples:setup_reps "setup_s" "s" (median cpu /. 1e3);
      note r "setup_wall_s" (Printf.sprintf "%.3f" (median wall /. 1e3));
      st
    end
    else begin
      discard st;
      go (k - 1) cpu wall
    end
  in
  go setup_reps [] []

(* high-water resident set of this process, MiB *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ---- output ---- *)

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let correct r = r.failed = 0 && r.attempted > 0

(* Human-readable table, the host/parameter record, then the result
   object as the final line.  [names] restricts and orders the metrics
   of the result object; the table shows every recorded metric. *)
let print r ~names =
  let ms = List.rev r.metrics in
  List.iter
    (fun m ->
      Printf.printf "%-34s %18s %-7s n=%d\n" m.name (json_float m.value)
        m.unit_ m.samples)
    ms;
  List.iter (fun p -> Printf.printf "FAILED: %s\n" p) (List.rev r.problems);
  let fields =
    List.rev_map
      (fun (k, v) -> Printf.sprintf "%s:%s" (Trace.json_string k) v)
      r.record
  in
  Printf.printf "{\"record\":{%s}}\n" (String.concat "," fields);
  let find n =
    match List.find_opt (fun m -> m.name = n) ms with
    | Some m -> m
    | None -> failwith ("perfbench: metric not measured: " ^ n)
  in
  let body =
    List.map
      (fun n ->
        let m = find n in
        Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (Trace.json_string n)
          (json_float m.value) (Trace.json_string m.unit_))
      names
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (correct r) r.attempted r.failed (String.concat "," body)
