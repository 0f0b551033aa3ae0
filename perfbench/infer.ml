(* The infer-* workloads: a closed loop with one client running
   encrypted inferences of one exec-scale app compiled with
   reserve-full, on one context and one key set prepared in set-up. *)

open Fhe_ir
module Reg = Fhe_apps.Registry
module St = Fhe_strategy.Strategy
module SReg = Fhe_strategy.Registry
module R = Report

let rbits = 28
let wbits = 22
let strategy = "reserve-full"

(* precision_bits is taken over the first this many timed inferences,
   so it depends on the seed alone. *)
let precision_samples = 5

type setup = {
  app : Reg.app;
  prog : Program.t;
  plan : Managed.t;
  phases : St.phases;
  ctx : Ckks.Context.t;
  keys : Ckks.Keys.t;
}

(* Inputs of request [i] (the warm-up is [-1]): the app's own seeded
   generator, keyed by the workload seed and the request index. *)
let request_inputs (a : Reg.app) ~seed i =
  a.Reg.exec_inputs ~seed:((seed * 100_003) + i + 1)

let max_err outs refs =
  let e = ref 0.0 in
  Array.iteri
    (fun o out ->
      Array.iteri
        (fun j x -> e := Float.max !e (Float.abs (x -. refs.(o).(j))))
        out)
    outs;
  !e

let infer (st : setup) ~inputs =
  Trace.span ~layer:"runtime" "Backend.run_with_keys" (fun () ->
      Ckks.Backend.run_with_keys st.keys st.plan ~inputs)

(* One checked inference: the decrypt must lie within the app's
   exec_tol of the plaintext reference.  Returns the latency and error
   of a passing run, and records its process CPU time in [cpu].  The time
   spent on the reference and the comparison is added to [checking]. *)
let checked_infer ?(checking = ref 0.0) ?(cpu = ref []) r (st : setup) ~inputs =
  let check f =
    let v, ms = Fhe_util.Timer.time f in
    checking := !checking +. ms;
    v
  in
  let refs = check (fun () -> Fhe_sim.Interp.run_reference st.prog ~inputs) in
  R.attempt r;
  let cpu0 = R.cpu_ms () in
  match Fhe_util.Timer.time (fun () -> infer st ~inputs) with
  | outs, ms ->
      let cpu_ms = R.cpu_ms () -. cpu0 in
      let e = check (fun () -> max_err outs refs) in
      if e <= st.app.Reg.exec_tol then begin
        cpu := cpu_ms :: !cpu;
        Some (ms, e)
      end
      else begin
        R.fail r
          (Printf.sprintf "%s: max|err| %.3e above exec_tol %.1e"
             st.app.Reg.name e st.app.Reg.exec_tol);
        None
      end
  | exception e ->
      R.fail r (st.app.Reg.name ^ ": inference raised " ^ Printexc.to_string e);
      None

(* Set-up: build, compile, reference outputs, context, keygen, and a
   warm-up inference that creates every lazy Galois key. *)
let setup r ~pool ~seed (a : Reg.app) =
  let prog = Trace.span ~layer:"apps" "Registry.exec_build" a.Reg.exec_build in
  let xmax_bits =
    Fhe_sim.Interp.max_magnitude_bits prog ~inputs:(a.Reg.exec_inputs ~seed:42)
  in
  let cfg = St.config ~xmax_bits ~rbits ~wbits () in
  let plan, phases =
    Trace.span ~layer:"compile" "Strategy.compile_with_phases" (fun () ->
        St.compile_with_phases (SReg.get_exn strategy) cfg prog)
  in
  R.check r
    (Result.is_ok (Validator.check plan))
    (fun () -> a.Reg.name ^ ": compiled plan fails Validator.check");
  let nh = Program.n_slots prog in
  let ctx =
    Trace.span ~layer:"runtime" "Context.make" (fun () ->
        Ckks.Context.make ~n:(2 * nh)
          ~levels:(max 1 (Managed.max_level plan))
          ~level_bits:rbits ())
  in
  Ckks.Context.set_pool ctx (Some pool);
  let keys =
    Trace.span ~layer:"keys" "Keys.keygen" (fun () -> Ckks.Keys.keygen ~seed ctx)
  in
  let st = { app = a; prog; plan; phases; ctx; keys } in
  ignore (checked_infer r st ~inputs:(request_inputs a ~seed (-1)));
  st

let record_params r (st : setup) ~pool =
  let ctx = st.ctx in
  R.note r "app" (Trace.json_string st.app.Reg.name);
  R.note r "strategy" (Trace.json_string strategy);
  R.note r "n" (string_of_int ctx.Ckks.Context.n);
  R.note r "L" (string_of_int ctx.Ckks.Context.levels);
  R.note r "log_qp" (string_of_int (Ckks.Security.total_modulus_bits ctx));
  R.note r "pool_width" (string_of_int (Fhe_par.Pool.domains pool));
  R.note r "security"
    (Trace.json_string
       (match Ckks.Security.classify ctx with
       | Some Ckks.Security.B128 -> "B128"
       | Some Ckks.Security.B192 -> "B192"
       | Some Ckks.Security.B256 -> "B256"
       | None -> "none"))

(* ---- untraced: the end-to-end metrics ---- *)

(* [tail_q] is the tail percentile reported and [min_samples] the fewest
   inferences a run makes, whatever its length: enough for ten samples
   beyond the tail (or for the precision samples). *)
let run_e2e r ~pool ~seed ~seconds ~tail_q ~min_samples (a : Reg.app) =
  let st = R.setup r (fun () -> setup r ~pool ~seed a) in
  record_params r st ~pool;
  (* start timing from a compacted heap, whatever set-up left behind *)
  Gc.compact ();
  let lat = ref [] and prec_err = ref 0.0 and checking = ref 0.0 in
  let cpu = ref [] in
  let t0 = Fhe_util.Timer.now_ns () in
  let elapsed () =
    Trace.ms_of_ns (Int64.sub (Fhe_util.Timer.now_ns ()) t0) /. 1e3
  in
  let i = ref 0 in
  while elapsed () < seconds || !i < min_samples do
    (match checked_infer ~checking ~cpu r st ~inputs:(request_inputs a ~seed !i) with
    | Some (ms, e) ->
        lat := ms :: !lat;
        if !i < precision_samples then prec_err := Float.max !prec_err e
    | None -> ());
    incr i
  done;
  let wall_s = elapsed () in
  let n = List.length !lat in
  R.metric r ~samples:n "cpu_ms_per_req" "ms" (R.median !cpu);
  R.metric r ~samples:n "latency_ms_p50" "ms" (R.median !lat);
  R.metric r ~samples:n "latency_ms_tail" "ms"
    (if tail_q = 0.5 then R.median !lat else R.percentile tail_q !lat);
  R.note r "tail_percentile" (Printf.sprintf "%g" (100.0 *. tail_q));
  (* the benchmark's own checking is not the system's work *)
  R.metric r ~samples:n "throughput_per_s" "1/s"
    (float_of_int n /. (wall_s -. (!checking /. 1e3)));
  R.note r "check_ms" (Printf.sprintf "%.1f" !checking);
  R.metric r "peak_rss_mb" "MiB" (R.peak_rss_mb ());
  R.metric r ~samples:precision_samples "precision_bits" "bits"
    (-.Float.log2 !prec_err);
  R.metric r "plan_est_ms" "model_ms" (Fhe_cost.Model.estimate st.plan /. 1e3)

(* ---- traced: the per-layer metrics ---- *)

type kind_acc = { mutable calls : int; mutable ms : float }

let kinds =
  [ "rotate"; "mul"; "mul_plain"; "add"; "rescale"; "modswitch"; "upscale";
    "encrypt"; "decrypt" ]

(* A Rescale consumed exactly once, by a Modswitch, and not itself an
   output, executes fused with that Modswitch — the rule Backend
   documents for its Modswitch∘Rescale peephole. *)
let deferred_rescales p =
  let n = Program.n_ops p in
  let uses = Array.make n 0 in
  let bump o = uses.(o) <- uses.(o) + 1 in
  Program.iteri (fun _ k -> List.iter bump (Op.operands k)) p;
  Array.iter bump (Program.outputs p);
  let deferred = Array.make n false in
  Program.iteri
    (fun _ k ->
      match k with
      | Op.Modswitch a
        when uses.(a) = 1
             && (match Program.kind p a with Op.Rescale _ -> true | _ -> false)
             && Program.vtype p a = Op.Cipher ->
          deferred.(a) <- true
      | _ -> ())
    p;
  deferred

type value = Ct of Ckks.Evaluator.ct | Pl of float array

(* Program-order replay of [plan] through the public Evaluator calls,
   one span per op.  The fused rescale∘modswitch is timed as rescale;
   the Modswitch it absorbs still counts as a modswitch call. *)
let replay (st : setup) ~inputs acc =
  let module E = Ckks.Evaluator in
  let keys = st.keys and m = st.plan in
  let p = m.Managed.prog in
  let nh = Ckks.Context.slot_count st.ctx in
  let deferred = deferred_rescales p in
  let vals = Array.make (Program.n_ops p) (Pl [||]) in
  let pad a =
    let out = Array.make nh 0.0 in
    Array.blit a 0 out 0 (min nh (Array.length a));
    out
  in
  let find name = pad (List.assoc name inputs) in
  let ct i = match vals.(i) with Ct c -> c | Pl _ -> invalid_arg "replay: plain" in
  let pl i = match vals.(i) with Pl v -> v | Ct _ -> invalid_arg "replay: cipher" in
  let is_c i = Program.vtype p i = Op.Cipher in
  let pow2 i = Fhe_util.Bits.pow2f m.Managed.scale.(i) in
  let op ?(call = true) kind name f =
    let a = Hashtbl.find acc kind in
    if call then a.calls <- a.calls + 1;
    let v, ms = Fhe_util.Timer.time (fun () -> Trace.span ~layer:"op" name f) in
    a.ms <- a.ms +. ms;
    v
  in
  let count kind =
    let a = Hashtbl.find acc kind in
    a.calls <- a.calls + 1
  in
  let plain_map2 f a b = Array.init nh (fun j -> f (pl a).(j) (pl b).(j)) in
  Program.iteri
    (fun i k ->
      vals.(i) <-
        (match k with
        | Op.Input { name; vt = Op.Cipher } ->
            Ct
              (op "encrypt" "Evaluator.encrypt_det" (fun () ->
                   E.encrypt_det keys ~tag:i ~level:m.Managed.level.(i)
                     ~scale:(pow2 i) (find name)))
        | Op.Input { name; vt = Op.Plain } -> Pl (find name)
        | Op.Const c -> Pl (Array.make nh c)
        | Op.Vconst { values; _ } -> Pl (pad values)
        | Op.Add (a, b) | Op.Sub (a, b) | Op.Mul (a, b) -> (
            let is_sub = match k with Op.Sub _ -> true | _ -> false in
            match (k, is_c a, is_c b) with
            | _, false, false ->
                Pl
                  (plain_map2
                     (match k with
                     | Op.Add _ -> ( +. )
                     | Op.Sub _ -> ( -. )
                     | _ -> ( *. ))
                     a b)
            | Op.Mul _, true, true ->
                Ct (op "mul" "Evaluator.mul" (fun () -> E.mul keys (ct a) (ct b)))
            | Op.Mul _, _, _ ->
                let c, q = if is_c a then (a, b) else (b, a) in
                Ct
                  (op "mul_plain" "Evaluator.mul_plain" (fun () ->
                       E.mul_plain keys (ct c) ~scale:(pow2 q) (pl q)))
            | _, true, true ->
                Ct
                  (op "add" (if is_sub then "Evaluator.sub" else "Evaluator.add")
                     (fun () ->
                       if is_sub then E.sub keys (ct a) (ct b)
                       else E.add keys (ct a) (ct b)))
            | _, true, false ->
                Ct
                  (op "add"
                     (if is_sub then "Evaluator.sub_plain" else "Evaluator.add_plain")
                     (fun () ->
                       if is_sub then E.sub_plain keys (ct a) (pl b)
                       else E.add_plain keys (ct a) (pl b)))
            | _, false, true ->
                Ct
                  (op "add"
                     (if is_sub then "Evaluator.neg_sub_plain" else "Evaluator.add_plain")
                     (fun () ->
                       if is_sub then E.neg keys (E.sub_plain keys (ct b) (pl a))
                       else E.add_plain keys (ct b) (pl a))))
        | Op.Neg a ->
            if is_c a then Ct (op "add" "Evaluator.neg" (fun () -> E.neg keys (ct a)))
            else Pl (Array.map (fun x -> -.x) (pl a))
        | Op.Rotate (a, s) ->
            if not (is_c a) then
              let v = pl a in
              Pl (Array.init nh (fun j -> v.(Fhe_util.Bits.pos_rem (j + s) nh)))
            else if Fhe_util.Bits.pos_rem s nh = 0 then vals.(a)
            else Ct (op "rotate" "Evaluator.rotate" (fun () -> E.rotate keys (ct a) s))
        | Op.Rescale a ->
            if not (is_c a) then vals.(a)
            else if deferred.(i) then begin
              count "rescale";
              vals.(a)
            end
            else Ct (op "rescale" "Evaluator.rescale" (fun () -> E.rescale keys (ct a)))
        | Op.Modswitch a ->
            if not (is_c a) then vals.(a)
            else if deferred.(a) then begin
              count "modswitch";
              let c = ct a in
              Ct
                (op ~call:false "rescale" "Evaluator.rescale_modswitch"
                   (fun () ->
                     if c.E.level > 2 then E.rescale_modswitch keys c
                     else E.modswitch keys (E.rescale keys c)))
            end
            else Ct (op "modswitch" "Evaluator.modswitch" (fun () -> E.modswitch keys (ct a)))
        | Op.Upscale (a, bits) ->
            if not (is_c a) then vals.(a)
            else Ct (op "upscale" "Evaluator.upscale" (fun () -> E.upscale keys (ct a) bits))))
    p;
  Array.map
    (fun o ->
      if is_c o then op "decrypt" "Evaluator.decrypt" (fun () -> E.decrypt keys (ct o))
      else pl o)
    (Program.outputs p)

(* Evaluator calls per kind that the compiled program implies, counted
   from its ops alone: the replay's op.<kind>.calls must equal these. *)
let program_op_counts (st : setup) =
  let p = st.plan.Managed.prog in
  let nh = Ckks.Context.slot_count st.ctx in
  let c = Hashtbl.create 16 in
  let bump k = Hashtbl.replace c k (1 + Option.value ~default:0 (Hashtbl.find_opt c k)) in
  let is_c i = Program.vtype p i = Op.Cipher in
  Program.iteri
    (fun i k ->
      if is_c i then
        match k with
        | Op.Input _ -> bump "encrypt"
        | Op.Add _ | Op.Sub _ | Op.Neg _ -> bump "add"
        | Op.Mul (a, b) -> bump (if is_c a && is_c b then "mul" else "mul_plain")
        | Op.Rotate (_, s) -> if Fhe_util.Bits.pos_rem s nh <> 0 then bump "rotate"
        | Op.Rescale _ -> bump "rescale"
        | Op.Modswitch _ -> bump "modswitch"
        | Op.Upscale _ -> bump "upscale"
        | Op.Const _ | Op.Vconst _ -> ())
    p;
  Array.iter (fun o -> if is_c o then bump "decrypt") (Program.outputs p);
  List.map (fun k -> (k, Option.value ~default:0 (Hashtbl.find_opt c k))) kinds

(* Rotations whose source another rotation also reads: the hoistable
   ones. *)
let shared_source_rotations p =
  let by_src = Hashtbl.create 64 in
  Program.iteri
    (fun _ k ->
      match k with
      | Op.Rotate (a, _) when Program.vtype p a = Op.Cipher ->
          Hashtbl.replace by_src a
            (1 + Option.value ~default:0 (Hashtbl.find_opt by_src a))
      | _ -> ())
    p;
  Hashtbl.fold (fun _ c acc -> if c > 1 then acc + c else acc) by_src 0

let distinct_rotation_steps (st : setup) =
  let nh = Ckks.Context.slot_count st.ctx in
  let p = st.plan.Managed.prog in
  let steps = Hashtbl.create 64 in
  Program.iteri
    (fun _ k ->
      match k with
      | Op.Rotate (a, s) when Program.vtype p a = Op.Cipher ->
          let s = Fhe_util.Bits.pos_rem s nh in
          if s <> 0 then Hashtbl.replace steps s ()
      | _ -> ())
    p;
  List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) steps [])

let same_bits (a : float array array) (b : float array array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         Array.length x = Array.length y
         && Array.for_all2
              (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
              x y)
       a b

(* NTT kernel probe on the workload's own plans: forward then inverse of
   seeded canonical residues, [reps] times per prime, checking the
   round trip. *)
let ntt_probe r (st : setup) ~seed ~reps =
  let ctx = st.ctx in
  let rng = Fhe_util.Prng.create seed in
  let fwd = ref [] and inv = ref [] in
  for i = 0 to ctx.Ckks.Context.levels do
    let plan = Ckks.Context.plan ctx i in
    let q = Ckks.Ntt.modulus plan in
    let x =
      Ckks.Rvec.of_array
        (Array.init ctx.Ckks.Context.n (fun _ -> Fhe_util.Prng.int rng q))
    in
    let orig = Ckks.Rvec.copy x in
    for _ = 1 to reps do
      let (), f =
        Fhe_util.Timer.time (fun () ->
            Trace.span ~layer:"kernel" "Ntt.forward" (fun () ->
                Ckks.Ntt.forward plan x))
      in
      let (), b =
        Fhe_util.Timer.time (fun () ->
            Trace.span ~layer:"kernel" "Ntt.inverse" (fun () ->
                Ckks.Ntt.inverse plan x))
      in
      fwd := f :: !fwd;
      inv := b :: !inv
    done;
    R.check r
      (Ckks.Rvec.to_array x = Ckks.Rvec.to_array orig)
      (fun () -> Printf.sprintf "Ntt: inverse(forward x) <> x on prime %d" q)
  done;
  (!fwd, !inv)

let traced_reps = 3

let run_traced r ~pool ~seed (a : Reg.app) ~trace_file =
  Trace.enabled := true;
  let st = Trace.with_request (-1) (fun () -> setup r ~pool ~seed a) in
  record_params r st ~pool;
  let plan = st.plan in
  (* warm inferences on the same inputs, alternately untraced and
     traced so that host drift falls on both sides alike *)
  let inputs = request_inputs a ~seed 0 in
  let gens0 = (Ckks.Keys.mem st.keys).Ckks.Keys.gens in
  let untraced = ref [] and traced = ref [] in
  for i = 0 to (2 * traced_reps) - 1 do
    let on = i mod 2 = 1 in
    Trace.enabled := on;
    match Trace.with_request i (fun () -> checked_infer r st ~inputs) with
    | Some (ms, _) ->
        if on then traced := ms :: !traced else untraced := ms :: !untraced
    | None -> ()
  done;
  Trace.enabled := true;
  let key_gens = (Ckks.Keys.mem st.keys).Ckks.Keys.gens - gens0 in
  let expected = Ckks.Backend.run_with_keys st.keys plan ~inputs in
  (* per-op replay *)
  let acc = Hashtbl.create 16 in
  List.iter (fun k -> Hashtbl.replace acc k { calls = 0; ms = 0.0 }) kinds;
  let replayed =
    Trace.with_request (2 * traced_reps) (fun () ->
        Trace.span ~layer:"bench" "replay" (fun () -> replay st ~inputs acc))
  in
  R.check r (same_bits replayed expected) (fun () ->
      a.Reg.name ^ ": replay decrypts differ from Backend.run_with_keys");
  (* kernel *)
  let fwd, inv = ntt_probe r st ~seed ~reps:20 in
  (* keys: a fresh key set, then one Galois key per distinct step *)
  let keys2, keygen_ms =
    Fhe_util.Timer.time (fun () ->
        Trace.span ~layer:"keys" "Keys.keygen" (fun () ->
            Ckks.Keys.keygen ~seed st.ctx))
  in
  let steps = distinct_rotation_steps st in
  let gens_before = (Ckks.Keys.mem keys2).Ckks.Keys.gens in
  let (), galois_ms =
    Fhe_util.Timer.time (fun () ->
        List.iter
          (fun s ->
            Trace.span ~layer:"keys" "Keys.add_rotation" (fun () ->
                Ckks.Keys.add_rotation keys2 s))
          steps)
  in
  let galois_count = List.length steps in
  R.check r
    ((Ckks.Keys.mem keys2).Ckks.Keys.gens - gens_before = galois_count)
    (fun () -> "keys.galois_count disagrees with Keys.mem gens");
  (* runtime phases and memory from run_timed *)
  let timed_out, bst =
    Trace.span ~layer:"runtime" "Backend.run_timed" (fun () ->
        Ckks.Backend.run_timed ~seed ~pool plan ~inputs)
  in
  let refs = Fhe_sim.Interp.run_reference st.prog ~inputs in
  R.check r (max_err timed_out refs <= a.Reg.exec_tol) (fun () ->
      a.Reg.name ^ ": run_timed decrypt outside exec_tol");
  let est_ms =
    Trace.span ~layer:"cost" "Model.estimate" (fun () ->
        Fhe_cost.Model.estimate plan /. 1e3)
  in
  Trace.enabled := false;
  Trace.write_chrome trace_file;
  (* ---- report ---- *)
  let mib b = float_of_int b /. 1048576.0 in
  let p50_untraced = R.median !untraced and p50_traced = R.median !traced in
  R.metric r ~samples:(List.length fwd) "ntt.forward_us" "us" (1e3 *. R.mean fwd);
  R.metric r ~samples:(List.length inv) "ntt.inverse_us" "us" (1e3 *. R.mean inv);
  let total_op_ms = ref 0.0 in
  List.iter
    (fun k ->
      let a = Hashtbl.find acc k in
      total_op_ms := !total_op_ms +. a.ms;
      R.count r ("op." ^ k ^ ".calls") a.calls;
      R.metric r ~samples:a.calls ("op." ^ k ^ ".ms") "ms" a.ms)
    kinds;
  R.count r "op.rotate.shared_source" (shared_source_rotations plan.Managed.prog);
  R.note r "program_ops"
    (Printf.sprintf "{%s}"
       (String.concat ","
          (List.map (fun (k, n) -> Printf.sprintf "%S:%d" k n)
             (program_op_counts st))));
  R.metric r "op.coverage" "ratio" (!total_op_ms /. p50_traced);
  R.metric r "backend.encrypt_ms" "ms" bst.Ckks.Backend.encrypt_ms;
  R.metric r "backend.eval_ms" "ms" bst.Ckks.Backend.eval_ms;
  R.metric r "backend.decrypt_ms" "ms" bst.Ckks.Backend.decrypt_ms;
  let mem = bst.Ckks.Backend.mem in
  R.metric r "backend.peak_ct_mib" "MiB" (mib mem.Ckks.Backend.peak_ct_bytes);
  R.metric r "backend.order_ct_mib" "MiB" (mib mem.Ckks.Backend.order_ct_bytes);
  R.count r "backend.arena_reuses" mem.Ckks.Backend.arena_reuses;
  R.count r "backend.key_gens" key_gens;
  R.metric r "keys.keygen_ms" "ms" keygen_ms;
  R.metric r ~samples:galois_count "keys.galois_ms" "ms" galois_ms;
  R.count r "keys.galois_count" galois_count;
  R.metric r "keys.peak_mib" "MiB" (mib (Ckks.Keys.mem st.keys).Ckks.Keys.peak_bytes);
  List.iter
    (fun s ->
      let name = St.name s in
      let mine = name = strategy in
      let f v = if mine then v else 0.0 in
      R.count r ("strategy." ^ name ^ ".calls") (if mine then 1 else 0);
      R.metric r ("strategy." ^ name ^ ".analyze_ms") "ms" (f st.phases.St.analyze_ms);
      R.metric r ("strategy." ^ name ^ ".annotate_ms") "ms" (f st.phases.St.annotate_ms);
      R.metric r ("strategy." ^ name ^ ".place_ms") "ms" (f st.phases.St.place_ms))
    (SReg.all ());
  R.metric r "plan.input_level" "level" (float_of_int (Managed.input_level plan));
  R.metric r "plan.log_qp" "bits"
    (float_of_int (Ckks.Security.total_modulus_bits st.ctx));
  R.metric r "cost.est_over_measured" "ratio" (est_ms /. p50_untraced);
  R.metric r ~samples:traced_reps "trace.overhead_ms" "ms" (p50_traced -. p50_untraced);
  R.count r "trace.spans" (List.length (Trace.spans ()))
