(* The metric registry: every name the benchmark prints, with its unit
   and direction.  BENCHMARK.json lists the same metrics (a test checks
   that they agree).

   Every workload prints every end-to-end metric, each meaning the same
   thing for the workload's own unit of work: one assessment (propagate
   then audit of the case file), one request, or one pass of five
   figures.  The per-layer metrics come from the traced run; a layer the
   workload never enters reads 0. *)

type e2e = { name : string; unit_ : string; better : string; bound : float }

let end_to_end =
  [
    { name = "setup_s"; unit_ = "s"; better = "lower"; bound = 0.25 };
    { name = "p50_ms"; unit_ = "ms"; better = "lower"; bound = 0.25 };
    { name = "cpu_ms"; unit_ = "ms"; better = "lower"; bound = 0.25 };
    { name = "peak_rss_mb"; unit_ = "MB"; better = "lower"; bound = 0.1 };
  ]

(* 2500 * sqrt 2 ^ k req/s, k = 0 .. 12: 2.5k to 160k.  Each step's p99
   goes to the env line, not the metrics: above the knee it is infinite. *)
let ladder_rates = List.init 13 (fun k -> Float.round (2500.0 *. (Float.sqrt 2.0 ** float_of_int k)))

let figure_ids = [ "conservative"; "figure5"; "tailcut"; "decisions"; "vr" ]

(* The parallel kernels the figures call: conservative, tailcut (two),
   vr, decisions. *)
let kernels =
  [ "sim.conservative_bound"; "sim.survival_curve"; "sim.pfd_sketch"; "sim.probability"; "regime.compare" ]

let speedup_name kernel =
  "parallel.speedup." ^ List.nth (String.split_on_char '.' kernel) 1

let per_layer =
  [
    ("fail_frac", "ratio", "lower");
    ("cli.start_ms", "ms", "lower");
    ("cli.propagate_s", "s", "lower");
    ("cli.audit_s", "s", "lower");
    ("io.read_s", "s", "lower");
    ("case_format.parse_raw_s", "s", "lower");
    ("case_format.parse_s", "s", "lower");
    ("case_format.parse_minor_mw", "Mwords", "lower");
    ("case_rules.check_s", "s", "lower");
    ("graph.of_node_s", "s", "lower");
    ("graph.propagate_ms", "ms", "lower");
    ("graph.structural_hash_ms", "ms", "lower");
    ("audit.graph_s", "s", "lower");
    ("audit.case_s", "s", "lower");
    ("file.coverage.propagate", "ratio", "higher");
    ("file.coverage.audit", "ratio", "higher");
    ("serve.p50_us", "us", "lower");
    ("serve.p99_us", "us", "lower");
    ("serve.load_s", "s", "lower");
    ("serve.cold_eval_ms", "ms", "lower");
    ("protocol.parse_us", "us", "lower");
    ("protocol.print_us", "us", "lower");
    ("engine.parse_us", "us", "lower");
    ("engine.evaluate_us", "us", "lower");
    ("engine.evaluate_p99_us", "us", "lower");
    ("engine.edit_us", "us", "lower");
    ("engine.edit_p99_us", "us", "lower");
    ("engine.ingest_us", "us", "lower");
    ("engine.ingest_p99_us", "us", "lower");
    ("engine.hit_ratio", "ratio", "higher");
    ("engine.memo_entries", "count", "lower");
    ("graph.refresh_us", "us", "lower");
    ("graph.rehash_us", "us", "lower");
    ("stream.observe_us", "us", "lower");
    ("parallel.map_chunks_us", "us", "lower");
    ("server.overhead_us", "us", "lower");
    ("server.shed", "count", "lower");
    ("client.lag_p99_us", "us", "lower");
  ]
  @ [ ("ladder.max_rps", "1/s", "higher"); ("ladder.knee_inside", "bool", "higher") ]
  @ List.map (fun id -> (Printf.sprintf "repro.%s_ms" id, "ms", "lower")) figure_ids
  @ List.concat_map (fun k -> [ (k ^ "_ms.d1", "ms", "lower"); (k ^ "_ms.dN", "ms", "lower") ]) kernels
  @ List.map (fun k -> (speedup_name k, "x", "higher")) kernels
  @ [
      ("sketch.add_column_ms", "ms", "lower");
      ("sketch.merge_into_ms", "ms", "lower");
      ("dist.sample_into_col_ms", "ms", "lower");
      ("trace.overhead_frac", "ratio", "lower");
    ]
