(* The compile-serve workload: [nproc] client connections in a closed
   loop against an in-process compile daemon, over a seeded request
   stream of the paper's eight apps at full size.  No CKKS runs here. *)

open Fhe_ir
module Reg = Fhe_apps.Registry
module St = Fhe_strategy.Strategy
module SReg = Fhe_strategy.Registry
module P = Fhe_serve.Protocol
module Client = Fhe_serve.Client
module Store = Fhe_cache.Store
module R = Report

let rbits = 60
let wbits = 30

(* enough requests for the tail to be the p99, with ten beyond it *)
let min_requests = 1000

(* ---- the request stream ----

   Every block of 400 requests holds exactly these classes, in a seeded
   order: (class, count, of which fresh).  A fresh request goes to a new
   tenant (a cold compile and a cache write); a repeat re-sends one of
   the last [window] (tenant, app, compiler, iterations) keys of its
   class, which stay resident in the store (a cache read).  Fresh keys
   cycle through the class's apps (and Hecate budgets), so every
   configuration is served within the first 1000 requests.

   LeNet-class requests are ~17 MiB on the wire each way; at 1.25 %
   they hold the p99 (which falls among their warm repeats, below the
   two cold LeNet compiles), while the p50 falls on small-app requests.
   Their share is kept this low because each one stalls the other
   connection's small requests. *)
type cls = Small of string | Hecate | Lenet

let mix =
  [ (Small "reserve-full", 323, 80);
    (Small "eva", 16, 4);
    (Small "reserve-ba", 16, 4);
    (Small "reserve-ra", 16, 4);
    (Hecate, 24, 8);
    (Lenet, 5, 1) ]

(* A run stops only at the end of a block, and cpu_ms_per_req is the
   median over the run's blocks of their CPU time per request: every
   block sends the same mix, and the median leaves out blocks that a
   burst of host load or the cold LeNet compiles made costly. *)
let block_size = List.fold_left (fun n (_, count, _) -> n + count) 0 mix

let window = function Lenet -> 2 | Small _ | Hecate -> 32
let hecate_iterations = [| 10; 20 |]
let lenet_apps = [| "Lenet-5"; "Lenet-C" |]

(* Fresh keys a class makes in a whole stream.  LeNet-class requests
   stop being fresh after one cold compile per LeNet app: each cached
   LeNet plan holds tens of MiB, so unbounded cold LeNet compiles would
   make peak_rss_mb grow with the run's request count, and so with its
   speed. *)
let max_fresh = function
  | Lenet -> Array.length lenet_apps
  | Small _ | Hecate -> max_int

type key = { tenant : string; app : string; compiler : string; iterations : int }
type request = { idx : int; key : key; fresh : bool }

let config_of k = (k.app, k.compiler, k.iterations)

type stream = {
  rng : Fhe_util.Prng.t;
  small : string array;
  made : (int, request) Hashtbl.t;
  earlier : (int, key array * int) Hashtbl.t;  (** class index -> keys *)
  fresh_made : (int, int) Hashtbl.t;  (** class index -> fresh keys so far *)
  mutable blocks : int;
}

let new_stream ~seed =
  { rng = Fhe_util.Prng.create seed;
    small = Array.of_list (List.map (fun (a : Reg.app) -> a.Reg.name) Reg.small);
    made = Hashtbl.create 4096;
    earlier = Hashtbl.create 8;
    fresh_made = Hashtbl.create 8;
    blocks = 0 }

let remember s ci k =
  let arr, n =
    Option.value ~default:([||], 0) (Hashtbl.find_opt s.earlier ci)
  in
  let arr =
    if n < Array.length arr then arr
    else Array.append arr (Array.make (max 16 n) k)
  in
  arr.(n) <- k;
  Hashtbl.replace s.earlier ci (arr, n + 1)

let gen_block s =
  let rng = s.rng in
  let slots =
    Array.of_list
      (List.concat
         (List.mapi
            (fun ci (_, count, fresh) ->
              List.init count (fun j -> (ci, j < fresh)))
            mix))
  in
  Fhe_util.Prng.shuffle rng slots;
  let base = s.blocks * Array.length slots in
  Array.iteri
    (fun j (ci, fresh) ->
      let idx = base + j in
      let cls, _, _ = List.nth mix ci in
      let fresh =
        fresh
        && Option.value ~default:0 (Hashtbl.find_opt s.fresh_made ci)
           < max_fresh cls
      in
      let new_key () =
        let tenant = Printf.sprintf "u%d" idx in
        let f = Option.value ~default:0 (Hashtbl.find_opt s.fresh_made ci) in
        Hashtbl.replace s.fresh_made ci (f + 1);
        let cycle a = a.(f mod Array.length a) in
        match cls with
        | Small compiler ->
            { tenant; app = cycle s.small; compiler; iterations = 0 }
        | Hecate ->
            { tenant; app = cycle s.small; compiler = "hecate";
              iterations =
                hecate_iterations.(f / Array.length s.small
                                   mod Array.length hecate_iterations) }
        | Lenet ->
            { tenant; app = cycle lenet_apps; compiler = "reserve-full";
              iterations = 0 }
      in
      let req =
        match Hashtbl.find_opt s.earlier ci with
        | Some (arr, n) when (not fresh) && n > 0 ->
            let w = min n (window cls) in
            { idx; key = arr.(n - 1 - Fhe_util.Prng.int rng w); fresh = false }
        | _ ->
            let k = new_key () in
            remember s ci k;
            { idx; key = k; fresh = true }
      in
      Hashtbl.replace s.made idx req)
    slots;
  s.blocks <- s.blocks + 1

let nth s i =
  while not (Hashtbl.mem s.made i) do
    gen_block s
  done;
  Hashtbl.find s.made i

(* ---- set-up: program builds and server start ---- *)

type app_entry = { app : Reg.app; prog : Program.t; xmax_bits : int }

type setup = {
  apps : (string, app_entry) Hashtbl.t;
  server : Fhe_serve.Server.t;
  socket : string;
}

(* Interp.max_magnitude_bits of the full LeNets at seed 42 (0 for both).
   Computing it takes ~5 s per app, so untraced runs use this constant
   and every traced run checks it ([check_lenet_xmax]). *)
let lenet_xmax_bits = 0

let setup ~width ~socket =
  Store.set_enabled true;
  Store.set_dir None;
  Store.set_capacity 256;
  Store.reset ();
  let apps = Hashtbl.create 8 in
  List.iter
    (fun (a : Reg.app) ->
      let prog = Trace.span ~layer:"apps" "Registry.build" a.Reg.build in
      let xmax_bits =
        if Array.mem a.Reg.name lenet_apps then lenet_xmax_bits
        else Fhe_sim.Interp.max_magnitude_bits prog ~inputs:(a.Reg.inputs ~seed:42)
      in
      Hashtbl.replace apps a.Reg.name { app = a; prog; xmax_bits })
    Reg.all;
  let config =
    { (Fhe_serve.Server.default_config ~socket) with
      Fhe_serve.Server.domains = width;
      read_timeout_ms = 30_000 }
  in
  let server =
    Trace.span ~layer:"serve" "Server.start" (fun () ->
        Fhe_serve.Server.start config)
  in
  { apps; server; socket }

let check_lenet_xmax r st =
  Array.iter
    (fun app ->
      let e = Hashtbl.find st.apps app in
      let bits =
        Fhe_sim.Interp.max_magnitude_bits e.prog
          ~inputs:(e.app.Reg.inputs ~seed:42)
      in
      R.check r (bits = lenet_xmax_bits) (fun () ->
          Printf.sprintf "%s: max_magnitude_bits is %d, lenet_xmax_bits %d" app
            bits lenet_xmax_bits))
    lenet_apps

let compile_request st (k : key) =
  let e = Hashtbl.find st.apps k.app in
  { P.tenant = k.tenant; compiler = k.compiler; strategies = []; rbits; wbits;
    xmax_bits = e.xmax_bits; iterations = k.iterations; allow_fallback = false;
    oracle = false; deadline_ms = 0; program = e.prog }

let strategy_config st (k : key) =
  let e = Hashtbl.find st.apps k.app in
  St.config ~xmax_bits:e.xmax_bits
    ?iterations:(if k.iterations > 0 then Some k.iterations else None)
    ~rbits ~wbits ()

(* ---- one request, checked ---- *)

type counters = {
  mutable shed : int;
  mutable timeouts : int;
  mutable degraded : int;
  mutable transport : int;
}

type outcome = {
  lat : (float * bool) list ref;  (** ok latencies, ms; LeNet-class flag *)
  served : (string * string * int, Managed.t) Hashtbl.t;
      (** first Compiled plan per distinct configuration *)
  c : counters;
  mutable check_ms : float;  (** client time spent checking replies *)
  olock : Mutex.t;
}

let new_outcome () =
  { lat = ref []; served = Hashtbl.create 64;
    c = { shed = 0; timeouts = 0; degraded = 0; transport = 0 };
    check_ms = 0.0; olock = Mutex.create () }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let open_conn st =
  Result.to_option (Client.connect ~timeout_ms:120_000 ~socket:st.socket ())

let connect st = ref (open_conn st)

let validate m =
  Trace.span ~layer:"ir" "Validator.check" (fun () ->
      Result.is_ok (Validator.check m))

(* Send one request on [conn]; returns the served plan on success.  A
   compile fails when shed, timed out, on a transport error, or on any
   reply other than Compiled/Degraded, and when its plan is not valid.
   A Compiled plan is kept when it is the first of its configuration
   and validated after the loop ([validate_served]); every later one
   must equal it, a structural comparison that keeps Validator.check
   out of the timed loop.  [conn] is replaced after a transport
   error. *)
let send r st out conn (req : request) =
  R.attempt r;
  let creq = compile_request st req.key in
  let reply, ms =
    Fhe_util.Timer.time (fun () ->
        Trace.span ~layer:"serve" "Client.compile" (fun () ->
            match !conn with
            | None -> Error "not connected"
            | Some c -> Client.compile c creq))
  in
  let fail msg = R.fail r (Printf.sprintf "request %d (%s/%s): %s" req.idx
                            req.key.app req.key.compiler msg) in
  let note f = with_lock out.olock (fun () -> f out.c) in
  match reply with
  | Error e ->
      note (fun c -> c.transport <- c.transport + 1);
      fail ("transport: " ^ e);
      Option.iter Client.close !conn;
      conn := open_conn st;
      None
  | Ok (P.Compiled cr | P.Degraded cr as rep) ->
      let m = cr.P.managed in
      let degraded = match rep with P.Degraded _ -> true | _ -> false in
      let first () =
        with_lock out.olock (fun () ->
            let cfg = config_of req.key in
            match Hashtbl.find_opt out.served cfg with
            | Some m0 -> Some m0
            | None ->
                Hashtbl.replace out.served cfg m;
                None)
      in
      let valid, check_ms =
        Fhe_util.Timer.time (fun () ->
            if degraded then validate m
            else
              match first () with
              | None -> true
              | Some m0 -> compare m0 m = 0)
      in
      with_lock out.olock (fun () -> out.check_ms <- out.check_ms +. check_ms);
      if not valid then begin
        fail
          (if degraded then "degraded plan fails Validator.check"
           else "served plan differs from the first of its configuration");
        None
      end
      else begin
        with_lock out.olock (fun () ->
            out.lat := (ms, Array.mem req.key.app lenet_apps) :: !(out.lat);
            if degraded then out.c.degraded <- out.c.degraded + 1);
        Some (m, ms)
      end
  | Ok (P.Shed _) ->
      note (fun c -> c.shed <- c.shed + 1);
      fail "shed";
      None
  | Ok (P.Timed_out _) ->
      note (fun c -> c.timeouts <- c.timeouts + 1);
      fail "timed out";
      None
  | Ok rep ->
      fail ("reply " ^ P.reply_name rep);
      None

(* ---- post-pass checks over the distinct served plans ---- *)

let validate_served r out =
  Hashtbl.iter
    (fun (app, compiler, iterations) m ->
      R.check r (validate m) (fun () ->
          Printf.sprintf "%s/%s/%d: served plan fails Validator.check" app
            compiler iterations))
    out.served

(* Each distinct configuration's served plan must encode byte-identically
   to an in-process uncached compile of the same request. *)
let parity r st out =
  Hashtbl.iter
    (fun (app, compiler, iterations) m ->
      let k = { tenant = ""; app; compiler; iterations } in
      let e = Hashtbl.find st.apps app in
      let local =
        Store.bypass (fun () ->
            SReg.compile_uncached (SReg.get_exn compiler) (strategy_config st k)
              e.prog)
      in
      R.check r
        (String.equal (Wire.encode_managed m) (Wire.encode_managed local))
        (fun () ->
          Printf.sprintf "%s/%s/%d: served plan differs from local compile" app
            compiler iterations))
    out.served

(* Mean model estimate (ms) over the distinct served plans. *)
let plan_est_ms out =
  R.mean
    (Hashtbl.fold
       (fun _ m acc -> (Fhe_cost.Model.estimate m /. 1e3) :: acc)
       out.served [])

(* Worst simulated output-error bound (Interp.max_log2_error) over the
   served reserve-full plans of the six small apps, as bits below each
   app's x_max headroom.  A plan property: simulated on the same seed-42
   inputs as the x_max measurement, whatever the workload seed. *)
let precision_bits st out =
  let worst =
    Hashtbl.fold
      (fun (app, compiler, _) m acc ->
        if compiler <> "reserve-full" || Array.mem app lenet_apps then acc
        else
          let e = Hashtbl.find st.apps app in
          Float.max acc
            (Fhe_sim.Interp.max_log2_error m ~inputs:(e.app.Reg.inputs ~seed:42)
            -. float_of_int e.xmax_bits))
      out.served neg_infinity
  in
  -.worst

(* ---- untraced: the end-to-end metrics ---- *)

let run_e2e r ~width ~seed ~seconds ~socket =
  let st =
    R.setup r
      ~discard:(fun st -> Fhe_serve.Server.stop st.server)
      (fun () -> setup ~width ~socket)
  in
  Fun.protect ~finally:(fun () -> Fhe_serve.Server.stop st.server) @@ fun () ->
  R.note r "clients" (string_of_int width);
  R.note r "server_domains" (string_of_int (max 2 width));
  let stream = new_stream ~seed in
  (* start timing from a compacted heap, whatever set-up left behind *)
  Gc.compact ();
  let slock = Mutex.create () in
  let sent = ref 0 in
  let out = new_outcome () in
  (* process CPU time when each block's first request is handed out *)
  let block_cpu = ref [ R.cpu_ms () ] in
  let t0 = Fhe_util.Timer.now_ns () in
  let elapsed () =
    Trace.ms_of_ns (Int64.sub (Fhe_util.Timer.now_ns ()) t0) /. 1e3
  in
  let next () =
    with_lock slock (fun () ->
        if elapsed () >= seconds && !sent >= min_requests
           && !sent mod block_size = 0
        then None
        else begin
          if !sent > 0 && !sent mod block_size = 0 then
            block_cpu := R.cpu_ms () :: !block_cpu;
          let req = nth stream !sent in
          incr sent;
          Some req
        end)
  in
  let client () =
    let conn = connect st in
    let rec loop () =
      match next () with
      | None -> ()
      | Some req ->
          ignore (send r st out conn req);
          loop ()
    in
    loop ();
    Option.iter Client.close !conn
  in
  let threads = List.init width (fun _ -> Thread.create client ()) in
  List.iter Thread.join threads;
  let wall_s = elapsed () in
  let per_block =
    let rec diffs = function
      | later :: (earlier :: _ as tl) ->
          ((later -. earlier) /. float_of_int block_size) :: diffs tl
      | [ _ ] | [] -> []
    in
    diffs (R.cpu_ms () :: !block_cpu)
  in
  validate_served r out;
  parity r st out;
  let lat = List.map fst !(out.lat) in
  let n = List.length lat in
  (* clients and in-process server alike: the whole system's CPU *)
  R.metric r ~samples:(List.length per_block) "cpu_ms_per_req" "ms"
    (R.median per_block);
  R.note r "block_cpu_ms_per_req"
    (Printf.sprintf "\"%s\""
       (String.concat " " (List.rev_map (Printf.sprintf "%.2f") per_block)));
  R.metric r ~samples:n "latency_ms_p50" "ms" (R.median lat);
  R.metric r ~samples:n "latency_ms_tail" "ms" (R.percentile 0.99 lat);
  R.note r "tail_percentile" "99";
  R.metric r ~samples:n "throughput_per_s" "1/s" (float_of_int n /. wall_s);
  R.metric r "peak_rss_mb" "MiB" (R.peak_rss_mb ());
  R.metric r ~samples:(Hashtbl.length out.served) "precision_bits" "bits"
    (precision_bits st out);
  R.metric r ~samples:(Hashtbl.length out.served) "plan_est_ms" "model_ms"
    (plan_est_ms out);
  R.note r "requests" (string_of_int !sent);
  R.note r "in_loop_check_ms" (Printf.sprintf "%.1f" out.check_ms);
  R.note r "lenet_class_share"
    (Printf.sprintf "%.4f"
       (float_of_int (List.length (List.filter snd !(out.lat)))
       /. float_of_int (max 1 n)))

(* ---- traced: the per-layer metrics ----

   A fixed prefix of the stream, sent by one client so that every count
   is deterministic: first untraced, then (after a cache reset) traced
   with in-process probes of the compile, cost, cache and wire layers. *)

let traced_requests = 200

let run_traced r ~width ~seed ~socket ~trace_file =
  Trace.enabled := true;
  let st = Trace.with_request (-1) (fun () -> setup ~width ~socket) in
  Fun.protect ~finally:(fun () -> Fhe_serve.Server.stop st.server) @@ fun () ->
  let stream = new_stream ~seed in
  let reqs = List.init traced_requests (nth stream) in
  let pass ~traced =
    Store.reset ();
    Trace.enabled := traced;
    let out = new_outcome () in
    let conn = connect st in
    let served =
      List.map
        (fun req ->
          Trace.with_request req.idx (fun () ->
              Trace.span ~layer:"bench" "request" (fun () ->
                  (req, send r st out conn req))))
        reqs
    in
    Option.iter Client.close !conn;
    (out, served)
  in
  let out_u, _ = pass ~traced:false in
  let out_t, served = pass ~traced:true in
  let cache = Store.stats () in
  let span = Trace.span in
  (* compile: the cold requests compiled in-process, phase by phase *)
  let phases = Hashtbl.create 8 in
  let overhead = ref [] in
  let keys = Hashtbl.create 64 in
  let key_of (k : key) =
    let c = config_of k in
    match Hashtbl.find_opt keys c with
    | Some x -> x
    | None ->
        let x =
          St.cache_key (SReg.get_exn k.compiler) (strategy_config st k)
            (Hashtbl.find st.apps k.app).prog
        in
        Hashtbl.replace keys c x;
        x
  in
  let lookups = ref [] in
  let enc = ref [] and dec = ref [] in
  List.iter
    (fun (req, res) ->
      Trace.with_request req.idx @@ fun () ->
      match res with
      | None -> ()
      | Some (m, client_ms) ->
          let k = req.key in
          let s = SReg.get_exn k.compiler in
          if req.fresh then begin
            let _, ph =
              span ~layer:"compile" "Strategy.compile_with_phases" (fun () ->
                  St.compile_with_phases s (strategy_config st k)
                    (Hashtbl.find st.apps k.app).prog)
            in
            let acc =
              Option.value ~default:[] (Hashtbl.find_opt phases (St.name s))
            in
            Hashtbl.replace phases (St.name s) (ph :: acc);
            overhead := (client_ms -. ph.St.total_ms) :: !overhead
          end
          else begin
            let key = key_of k in
            let (_, hit), us =
              Fhe_util.Timer.time (fun () ->
                  span ~layer:"cache" "Store.with_managed" (fun () ->
                      Store.with_namespace k.tenant (fun () ->
                          Store.with_managed_hit ~key (fun () -> m))))
            in
            if hit then lookups := (1e3 *. us) :: !lookups
          end;
          let bytes, e =
            Fhe_util.Timer.time (fun () ->
                span ~layer:"wire" "Wire.encode_managed" (fun () ->
                    Wire.encode_managed m))
          in
          let decoded, d =
            Fhe_util.Timer.time (fun () ->
                span ~layer:"wire" "Wire.decode_managed" (fun () ->
                    Wire.decode_managed bytes))
          in
          R.check r
            (match decoded with
            | Ok m' -> String.equal (Wire.encode_managed m') bytes
            | Error _ -> false)
            (fun () -> "Wire: decode_managed does not round-trip a served plan");
          enc := e :: !enc;
          dec := d :: !dec;
          ignore
            (span ~layer:"cost" "Model.estimate" (fun () ->
                 Fhe_cost.Model.estimate m)))
    served;
  Trace.enabled := false;
  Trace.write_chrome trace_file;
  validate_served r out_u;
  validate_served r out_t;
  parity r st out_t;
  let (), xmax_ms = Fhe_util.Timer.time (fun () -> check_lenet_xmax r st) in
  R.note r "xmax_check_ms" (Printf.sprintf "%.0f" xmax_ms);
  (* ---- report ---- *)
  let req_mib =
    let sizes = Hashtbl.create 8 in
    R.mean
      (List.map
         (fun req ->
           let app = req.key.app in
           match Hashtbl.find_opt sizes app with
           | Some s -> s
           | None ->
               let s =
                 float_of_int
                   (String.length (Wire.encode (Hashtbl.find st.apps app).prog))
                 /. 1048576.0
               in
               Hashtbl.replace sizes app s;
               s)
         reqs)
  in
  List.iter
    (fun s ->
      let name = St.name s in
      let ph = Option.value ~default:[] (Hashtbl.find_opt phases name) in
      let sum f = List.fold_left (fun a p -> a +. f p) 0.0 ph in
      R.count r ("strategy." ^ name ^ ".calls") (List.length ph);
      R.metric r ("strategy." ^ name ^ ".analyze_ms") "ms" (sum (fun p -> p.St.analyze_ms));
      R.metric r ("strategy." ^ name ^ ".annotate_ms") "ms" (sum (fun p -> p.St.annotate_ms));
      R.metric r ("strategy." ^ name ^ ".place_ms") "ms" (sum (fun p -> p.St.place_ms)))
    (SReg.all ());
  R.count r "cache.hits" cache.Store.hits;
  R.count r "cache.misses" cache.Store.misses;
  R.metric r "cache.hit_ratio" "ratio"
    (float_of_int cache.Store.hits
    /. float_of_int (max 1 (cache.Store.hits + cache.Store.misses)));
  R.metric r ~samples:(List.length !lookups) "cache.lookup_us" "us" (R.median !lookups);
  R.metric r ~samples:(List.length !enc) "wire.encode_ms" "ms" (R.mean !enc);
  R.metric r ~samples:(List.length !dec) "wire.decode_ms" "ms" (R.mean !dec);
  R.metric r ~samples:traced_requests "wire.request_mib" "MiB" req_mib;
  R.metric r ~samples:(List.length !overhead) "serve.overhead_ms" "ms" (R.median !overhead);
  let c = out_t.c and cu = out_u.c in
  R.count r "serve.shed" (c.shed + cu.shed);
  R.count r "serve.timeouts" (c.timeouts + cu.timeouts);
  R.count r "serve.degraded" (c.degraded + cu.degraded);
  R.count r "serve.transport" (c.transport + cu.transport);
  let adm = Fhe_serve.Server.stats st.server in
  R.note r "server_stats" (Fhe_serve.Admission.stats_json adm);
  let p50 o = R.median (List.map fst !(o.lat)) in
  R.metric r ~samples:traced_requests "trace.overhead_ms" "ms" (p50 out_t -. p50 out_u);
  R.count r "trace.spans" (List.length (Trace.spans ()))
