(* perfbench: the repository's benchmark of record.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--width K]

   Workloads: infer-lenet5, infer-pr, compile-serve (README.md says why
   each).  With --trace 0 the result object carries the end-to-end
   metrics, measured untraced; with --trace 1 it carries the per-layer
   metrics of a fixed-work traced run, whose spans are written to
   _perfbench/trace-W-N.json.  The last line of standard output is the
   result object; the exit code is 1 when any correctness check
   failed. *)

(* The result object's metrics with --trace 0.  Wall-clock latency and
   throughput are printed in the table too, but are left out of it: on a
   shared host they follow the hypervisor's steal time, which moved
   them by more than any regression bound (README.md, Steadiness). *)
let end_to_end =
  [ "setup_s"; "cpu_ms_per_req"; "peak_rss_mb"; "precision_bits";
    "plan_est_ms" ]

let strategies = [ "eva"; "hecate"; "reserve-ba"; "reserve-ra"; "reserve-full" ]

let op_kinds = Infer.kinds

let layers =
  [ "kernel"; "op"; "runtime"; "keys"; "compile"; "cost"; "cache"; "wire";
    "serve" ]

(* Every per-layer metric and its unit.  A workload that bypasses a
   layer reports that layer's metrics as 0. *)
let per_layer =
  [ ("ntt.forward_us", "us"); ("ntt.inverse_us", "us") ]
  @ List.concat_map
      (fun k -> [ ("op." ^ k ^ ".calls", "count"); ("op." ^ k ^ ".ms", "ms") ])
      op_kinds
  @ [ ("op.rotate.shared_source", "count"); ("op.coverage", "ratio");
      ("backend.encrypt_ms", "ms"); ("backend.eval_ms", "ms");
      ("backend.decrypt_ms", "ms"); ("backend.peak_ct_mib", "MiB");
      ("backend.order_ct_mib", "MiB"); ("backend.arena_reuses", "count");
      ("backend.key_gens", "count"); ("keys.keygen_ms", "ms");
      ("keys.galois_ms", "ms"); ("keys.galois_count", "count");
      ("keys.peak_mib", "MiB") ]
  @ List.concat_map
      (fun s ->
        [ ("strategy." ^ s ^ ".calls", "count");
          ("strategy." ^ s ^ ".analyze_ms", "ms");
          ("strategy." ^ s ^ ".annotate_ms", "ms");
          ("strategy." ^ s ^ ".place_ms", "ms") ])
      strategies
  @ [ ("plan.input_level", "level"); ("plan.log_qp", "bits");
      ("cost.est_over_measured", "ratio"); ("cache.hits", "count");
      ("cache.misses", "count"); ("cache.hit_ratio", "ratio");
      ("cache.lookup_us", "us"); ("wire.encode_ms", "ms");
      ("wire.decode_ms", "ms"); ("wire.request_mib", "MiB");
      ("serve.overhead_ms", "ms"); ("serve.shed", "count");
      ("serve.timeouts", "count"); ("serve.degraded", "count");
      ("serve.transport", "count") ]
  @ List.map (fun l -> ("self." ^ l ^ "_ms", "ms")) layers
  @ [ ("trace.overhead_ms", "ms"); ("trace.spans", "count") ]

let usage () =
  prerr_endline
    "usage: main.exe --workload infer-lenet5|infer-pr|compile-serve --seed N \
     --seconds S --trace 0|1 [--width K]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and width = ref (Domain.recommended_domain_count ()) in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: tl -> workload := v; parse tl
    | "--seed" :: v :: tl -> seed := int_of_string v; parse tl
    | "--seconds" :: v :: tl -> seconds := float_of_string v; parse tl
    | "--trace" :: v :: tl -> trace := int_of_string v; parse tl
    | "--width" :: v :: tl -> width := int_of_string v; parse tl
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !width < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let r = Report.create () in
  Report.note r "workload" (Trace.json_string !workload);
  Report.note r "seed" (string_of_int !seed);
  Report.note r "nproc" (string_of_int (Domain.recommended_domain_count ()));
  Report.note r "width" (string_of_int !width);
  Report.note r "ocaml" (Trace.json_string Sys.ocaml_version);
  Report.note r "traced" (string_of_int !trace);
  let dir = "_perfbench" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let trace_file = Printf.sprintf "%s/trace-%s-%d.json" dir !workload !seed in
  let socket = Printf.sprintf "%s/s%d.sock" dir (Unix.getpid ()) in
  let traced = !trace = 1 in
  let infer app ~tail_q ~min_samples =
    Fhe_par.Pool.with_pool ~domains:!width (fun pool ->
        let a = Fhe_apps.Registry.find app in
        if traced then Infer.run_traced r ~pool ~seed:!seed a ~trace_file
        else
          Infer.run_e2e r ~pool ~seed:!seed ~seconds:!seconds ~tail_q
            ~min_samples a)
  in
  (* The tail percentile is fixed per workload, so that it never changes
     between runs: ~20 LeNet-5 inferences leave no tail above the median;
     at least 50 PR inferences put ten beyond the p80; compile-serve
     sends at least 1000 requests, ten beyond the p99. *)
  (match !workload with
  | "infer-lenet5" -> infer "Lenet-5" ~tail_q:0.5 ~min_samples:5
  | "infer-pr" -> infer "PR" ~tail_q:0.8 ~min_samples:50
  | "compile-serve" ->
      if traced then
        Compile_serve.run_traced r ~width:!width ~seed:!seed ~socket ~trace_file
      else
        Compile_serve.run_e2e r ~width:!width ~seed:!seed ~seconds:!seconds
          ~socket
  | _ -> usage ());
  let names =
    if traced then begin
      let self = Trace.self_ms_by_layer () in
      List.iter
        (fun l -> Report.metric r ("self." ^ l ^ "_ms") "ms" (self l))
        layers;
      Report.note r "trace_file" (Trace.json_string trace_file);
      (* layers this workload bypasses read 0 *)
      List.iter
        (fun (n, u) ->
          if not (List.exists (fun m -> m.Report.name = n) r.Report.metrics)
          then Report.metric r ~samples:0 n u 0.0)
        per_layer;
      List.map fst per_layer
    end
    else end_to_end
  in
  Report.print r ~names;
  exit (if Report.correct r then 0 else 1)
