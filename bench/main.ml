(* Bench harness: regenerates every table and figure of the paper (the
   reproduction output recorded in EXPERIMENTS.md), then times each
   generator with Bechamel.  End-to-end performance is measured by
   confbench (bench/e2e); this harness keeps the in-process micro rows.

   Usage:
     main.exe                 reproduction output + timings
     main.exe --no-perf       reproduction output only
     main.exe --json <path>   experiment, micro, VR and graph rows as JSON;
                              exits 1 if an incremental edit is not at least
                              10x faster than a cold evaluate *)

let print_experiment (id, anchor, f) =
  Printf.printf "################ [%s] %s ################\n\n%s\n" id anchor
    (f ())

let run_reproductions () =
  print_endline
    "Reproduction of: Bloomfield, Littlewood, Wright — \"Confidence: its \
     role in\ndependability cases for risk assessment\", DSN 2007.\n";
  List.iter print_experiment Repro.Experiments.all;
  print_endline
    "################ Ablations (library design choices) ################\n";
  List.iter print_experiment Repro.Ablations.all

(* ------------------------------------------------------------------ *)
(* Timing                                                             *)

type row = { name : string; nanos : float; samples : int }

(* A single OLS estimate under a fixed time quota.  Slow experiments
   (hundreds of ms per run) can exhaust a small quota after one run. *)
let ols_once ~name ~quota thunk =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second quota) () in
  let instance = Toolkit.Instance.monotonic_clock in
  let analysis =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let test =
    Test.make ~name (Staged.stage (fun () -> ignore (Sys.opaque_identity (thunk ()))))
  in
  match Test.elements test with
  | [ elt ] ->
    let result = Benchmark.run cfg [ instance ] elt in
    let ols = Analyze.one analysis instance result in
    let nanos =
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> est
      | Some _ | None -> nan
    in
    { name; nanos; samples = result.Benchmark.stats.samples }
  | _ -> { name; nanos = nan; samples = 0 }

(* Every row must rest on at least [min_samples] measurements or the
   number is noise (BENCH_2 recorded single-sample rows for the slow
   experiments).  Start cheap and, when a run comes back under-sampled,
   retry with a quota sized from the measured per-run cost. *)
let min_samples = 3

let ols_nanos ~name thunk =
  let rec go ~quota attempt =
    let r = ols_once ~name ~quota thunk in
    if r.samples >= min_samples || attempt >= 3 then r
    else
      let from_estimate =
        if Float.is_finite r.nanos && r.nanos > 0.0 then
          r.nanos *. float_of_int (min_samples + 1) /. 1e9
        else 0.0
      in
      go ~quota:(Float.max (quota *. 4.0) from_estimate) (attempt + 1)
  in
  go ~quota:0.25 0

(* For rows whose every run consumes its input: the median of [iters]
   runs of [run x] timed by the monotonic clock, each on a fresh
   [x = prepare k] made untimed. *)
let p50 ~name ~iters prepare run =
  let samples = Array.make iters nan in
  for k = 0 to iters - 1 do
    let x = prepare k in
    let t0 = Monotonic_clock.now () in
    ignore (Sys.opaque_identity (run x));
    samples.(k) <- Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0)
  done;
  Array.sort Float.compare samples;
  { name; nanos = samples.(iters / 2); samples = iters }

let time_string nanos =
  if nanos >= 1e9 then Printf.sprintf "%.3f s" (nanos /. 1e9)
  else if nanos >= 1e6 then Printf.sprintf "%.3f ms" (nanos /. 1e6)
  else Printf.sprintf "%.3f us" (nanos /. 1e3)

let print_rows rows =
  Printf.printf "%-28s %16s %8s\n" "experiment" "time/run" "samples";
  print_endline (String.make 54 '-');
  List.iter
    (fun r ->
      Printf.printf "%-28s %16s %8d\n" r.name (time_string r.nanos) r.samples)
    rows

let time_experiments () =
  List.map
    (fun (id, _, f) -> ols_nanos ~name:id (fun () -> f ()))
    Repro.Experiments.all

let run_perf () =
  print_endline "################ Bechamel timings ################\n";
  print_rows (time_experiments ())

(* ------------------------------------------------------------------ *)
(* Variance-reduction rows: statistical efficiency of importance
   sampling and QMC against the plain parallel MC baseline at an equal
   sample budget.  Efficiency is work-normalised — variance x time per
   run, so a method only scores by reducing variance faster than it
   inflates cost.  The IS row targets the tail mass P(pfd > 1e-3) of a
   lognormal belief (mode 1e-5, sigma 1.2); the QMC row estimates the
   same belief's mean through the quantile transform. *)

type vr_row = {
  vr_name : string;  (** which estimand *)
  vr_method : string;  (** [plain] / [is] / [qmc] *)
  vr_mean : float;
  vr_se : float;
  vr_n : int;
  vr_r : row;
  vr_efficiency : float;
      (** (var x time) of plain over (var x time) of this row; 1 for the
          baseline rows. *)
}

let vr_rows () =
  let n = 65536 and chunks = 64 and seed = Repro.Paper.seed + 91 in
  let sigma = 1.2 in
  let target = Dist.Lognormal.make ~mu:(log 1e-5 +. (sigma *. sigma)) ~sigma in
  let y = 1e-3 in
  Numerics.Parallel.with_pool ~num_domains:4 (fun pool ->
      let efficiency (base_r : row) (base_e : Sim.Mc.estimate) (r : row)
          (e : Sim.Mc.estimate) =
        let v0 = base_e.Sim.Mc.std_error *. base_e.Sim.Mc.std_error
        and v1 = e.Sim.Mc.std_error *. e.Sim.Mc.std_error in
        if v1 > 0.0 && r.nanos > 0.0 then
          v0 *. base_r.nanos /. (v1 *. r.nanos)
        else nan
      in
      (* Tail probability: plain Bernoulli counting vs tilted-proposal IS. *)
      let tail_plain () =
        Sim.Mc.probability_par ~pool ~chunks ~n ~seed (fun rng ->
            target.Dist.sample rng > y)
      in
      let proposal =
        match Sim.Proposal.tail ~target ~y with
        | Some p -> p
        | None -> target
      in
      let tail_is () =
        (Sim.Mc.probability_is ~pool ~chunks ~n ~seed:(seed + 1) ~target
           ~proposal (fun x -> x > y))
          .Sim.Mc.plain
      in
      let r_plain = ols_nanos ~name:"vr_tail/plain" tail_plain in
      let e_plain = tail_plain () in
      let r_is = ols_nanos ~name:"vr_tail/is" tail_is in
      let e_is = tail_is () in
      (* Mean estimation: plain sampling vs randomised QMC through the
         quantile transform (16 scrambled replicates). *)
      let mean_plain () =
        Sim.Mc.estimate_par_batched_col ~pool ~chunks ~n ~seed:(seed + 2)
          (fun () -> Sim.Mc.fill_col_of_scalar target.Dist.sample)
      in
      let replicates = 16 in
      let mean_qmc () =
        Sim.Mc.estimate_qmc ~pool ~replicates ~dim:1 ~n:(n / replicates)
          ~seed:(seed + 3) (fun p ->
            let u = Stdlib.Float.Array.get p 0 in
            let u = Float.min (1.0 -. 1e-12) (Float.max 1e-12 u) in
            target.Dist.quantile u)
      in
      let r_mplain = ols_nanos ~name:"vr_mean/plain" mean_plain in
      let e_mplain = mean_plain () in
      let r_qmc = ols_nanos ~name:"vr_mean/qmc" mean_qmc in
      let e_qmc = mean_qmc () in
      let mk name meth (r : row) (e : Sim.Mc.estimate) eff =
        {
          vr_name = name;
          vr_method = meth;
          vr_mean = e.Sim.Mc.mean;
          vr_se = e.Sim.Mc.std_error;
          vr_n = e.Sim.Mc.n;
          vr_r = r;
          vr_efficiency = eff;
        }
      in
      [ mk "tail_p_gt_1e-3" "plain" r_plain e_plain 1.0;
        mk "tail_p_gt_1e-3" "is" r_is e_is (efficiency r_plain e_plain r_is e_is);
        mk "lognormal_mean" "plain" r_mplain e_mplain 1.0;
        mk "lognormal_mean" "qmc" r_qmc e_qmc
          (efficiency r_mplain e_mplain r_qmc e_qmc) ])

let print_vr_rows rows =
  Printf.printf "%-18s %-6s %12s %10s %12s %12s\n" "estimand" "method" "mean"
    "se" "time/run" "efficiency";
  print_endline (String.make 76 '-');
  List.iter
    (fun v ->
      Printf.printf "%-18s %-6s %12.4e %10.2e %12s %12.2f\n" v.vr_name
        v.vr_method v.vr_mean v.vr_se (time_string v.vr_r.nanos)
        v.vr_efficiency)
    rows;
  let se_of m name =
    List.find_opt (fun v -> v.vr_method = m && v.vr_name = name) rows
    |> Option.map (fun v -> v.vr_se)
  in
  (match (se_of "plain" "lognormal_mean", se_of "qmc" "lognormal_mean") with
  | Some a, Some b when b > 0.0 ->
    Printf.printf "qmc rmse improvement on the mean row: %.1fx\n" (a /. b)
  | _ -> ());
  match List.find_opt (fun v -> v.vr_method = "is") rows with
  | Some v ->
    Printf.printf
      "is statistical efficiency vs plain MC (variance x time): %.1fx\n"
      v.vr_efficiency
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Micro regressions: the primitives the MC speedups rest on.  The
   quantile pair records the sort-vs-select gap ([Summary.quantile]
   copies and fully sorts; [Summary.quantile_unsorted] runs Floyd–Rivest
   selection on the copy); the sketch rows guard the streaming add path
   and the chunk-order merge (now over SoA centroid columns); the RNG
   pair records the scalar-vs-batched draw gap; the posterior row times
   one grid posterior end to end; the SoA-vs-boxed pairs
   record what the columnar migration bought on the empirical-quantile
   and mixture-sampling hot paths; the snapshot trio times the on-disk
   column round-trip (copying and mmapped loads). *)

let micro_n = 1_000_000

let micro_rows () =
  let xs =
    let rng = Numerics.Rng.create 7 in
    Array.init micro_n (fun _ -> Numerics.Rng.float rng)
  in
  let quantile_sort =
    ols_nanos ~name:"quantile_sort_1e6" (fun () ->
        Numerics.Summary.quantile xs 0.99)
  in
  let quantile_select =
    ols_nanos ~name:"quantile_select_1e6" (fun () ->
        Numerics.Summary.quantile_unsorted xs 0.99)
  in
  (* The before/after of the Empirical migration: first-quantile cost on
     a fresh pool.  Boxed = copy the boxed array and fully sort (what the
     old array-backed Empirical did on its first order-statistic query);
     SoA = copy into an unboxed column and Floyd–Rivest in place. *)
  let empirical_quantile_boxed =
    ols_nanos ~name:"empirical_quantile_boxed_1e6" (fun () ->
        let copy = Array.copy xs in
        Array.sort Float.compare copy;
        copy.(int_of_float (0.99 *. float_of_int (micro_n - 1))))
  in
  let empirical_quantile_soa =
    ols_nanos ~name:"empirical_quantile_soa_1e6" (fun () ->
        let emp =
          Dist.Empirical.of_column ~share:true (Numerics.Columns.of_array xs)
        in
        Dist.Empirical.quantile emp 0.99)
  in
  (* An 8-component mixture: the cumulative-weight binary-search path
     (neither the atoms-only nor the 1/2-component fast paths apply).
     Scalar = one [sample] call per slot, the pre-columnar fallback for
     k >= 3; SoA = [sample_into_col] batching selection through the cum
     column. *)
  let mixture8 =
    Dist.Mixture.make
      [ (0.125, Dist.Mixture.Atom 0.0);
        (0.125, Dist.Mixture.Atom 1e-3);
        (0.125, Dist.Mixture.Cont (Dist.Lognormal.make ~mu:(-9.0) ~sigma:0.8));
        (0.125, Dist.Mixture.Cont (Dist.Lognormal.make ~mu:(-8.0) ~sigma:0.9));
        (0.125, Dist.Mixture.Cont (Dist.Lognormal.make ~mu:(-7.0) ~sigma:1.0));
        (0.125, Dist.Mixture.Cont (Dist.Lognormal.make ~mu:(-6.0) ~sigma:1.1));
        (0.125, Dist.Mixture.Cont (Dist.Lognormal.make ~mu:(-5.0) ~sigma:1.2));
        (0.125, Dist.Mixture.Cont (Dist.Lognormal.make ~mu:(-4.0) ~sigma:1.3)) ]
  in
  let mix_n = 262_144 in
  let mixture_scalar =
    let buf = Stdlib.Float.Array.create mix_n in
    ols_nanos ~name:"mixture_sample8_scalar_262k" (fun () ->
        let rng = Numerics.Rng.create 11 in
        for i = 0 to mix_n - 1 do
          Stdlib.Float.Array.set buf i (Dist.Mixture.sample mixture8 rng)
        done)
  in
  let mixture_soa =
    let col = Numerics.Columns.make mix_n 0.0 in
    let buf = Numerics.Columns.unsafe_data col in
    ols_nanos ~name:"mixture_sample8_soa_262k" (fun () ->
        let rng = Numerics.Rng.create 11 in
        Dist.Mixture.sample_into_col mixture8 rng buf ~pos:0 ~len:mix_n)
  in
  let sketch_add =
    let col = Numerics.Columns.of_array xs in
    ols_nanos ~name:"sketch_add_soa_1e6" (fun () ->
        let sk = Numerics.Sketch.create () in
        Numerics.Sketch.add_column sk col ~pos:0 ~len:micro_n;
        Numerics.Sketch.quantile sk 0.99)
  in
  (* One demand-evidence posterior on a fresh lognormal belief (a
     1025-point grid) and its confidence read-off: the unit of work the
     decision-impact study repeats for every tested system. *)
  let posterior_demands =
    ols_nanos ~name:"posterior_demands_1025" (fun () ->
        let belief =
          Dist.Mixture.of_dist
            (Dist.Lognormal.of_mode_mean ~mode:3e-3 ~mean:1e-2)
        in
        let post, _ =
          Experience.Bayes.update_demands belief ~failures:1 ~demands:500
        in
        Dist.Mixture.prob_le post 1e-2)
  in
  (* 64 pre-built 16k-value sketches folded in chunk order: the shape of
     the parallel reduction.  [merge] allocates a fresh sketch per step;
     [merge_into] recycles one accumulator's columns (the fold the
     parallel layer now runs). *)
  let sketch_parts () =
    Array.init 64 (fun i ->
        let rng = Numerics.Rng.create (1000 + i) in
        let sk = Numerics.Sketch.create () in
        for _ = 1 to 16_000 do
          Numerics.Sketch.add sk (Numerics.Rng.float rng)
        done;
        sk)
  in
  let sketch_merge =
    let parts = sketch_parts () in
    ols_nanos ~name:"sketch_merge_soa_64x16k" (fun () ->
        Array.fold_left Numerics.Sketch.merge
          (Numerics.Sketch.create ())
          parts)
  in
  let sketch_merge_into =
    let parts = sketch_parts () in
    ols_nanos ~name:"sketch_merge_into_64x16k" (fun () ->
        let acc = Numerics.Sketch.create () in
        Array.iter (fun sk -> Numerics.Sketch.merge_into ~into:acc sk) parts;
        acc)
  in
  (* Snapshot round-trip on a 1e6-element column: atomic save, copying
     load, and private-mmap load. *)
  let snap_path = Filename.temp_file "confcase_bench" ".snap" in
  let snap_col = Numerics.Columns.of_array xs in
  let columns_save =
    ols_nanos ~name:"snapshot_save_1e6" (fun () ->
        Numerics.Columns.save snap_path [ ("samples", snap_col) ])
  in
  let columns_load =
    ols_nanos ~name:"snapshot_load_1e6" (fun () ->
        Numerics.Columns.load ~mmap:false snap_path)
  in
  let columns_load_mmap =
    ols_nanos ~name:"snapshot_load_mmap_1e6" (fun () ->
        Numerics.Columns.load ~mmap:true snap_path)
  in
  (try Sys.remove snap_path with Sys_error _ -> ());
  let rng_scalar =
    ols_nanos ~name:"rng_float_scalar_1e6" (fun () ->
        let rng = Numerics.Rng.create 7 in
        let acc = ref 0.0 in
        for _ = 1 to micro_n do
          acc := !acc +. Numerics.Rng.float rng
        done;
        !acc)
  in
  let rng_fill =
    let buf = Numerics.Columns.unsafe_data (Numerics.Columns.make micro_n 0.0) in
    ols_nanos ~name:"rng_fill_floats_1e6" (fun () ->
        let rng = Numerics.Rng.create 7 in
        Numerics.Rng.fill_floats_col rng buf ~pos:0 ~len:micro_n)
  in
  (* The case-file value reader: 10^6 confidences spelled %.17g, as a
     case file's evidence lines spell them (the headline case's leaf
     band below), read in place from one text by [Decimal.of_span]. *)
  let decimal_parse =
    let rng = Numerics.Rng.create 11 in
    let buf = Buffer.create (20 * micro_n) in
    let at = Array.make micro_n 0 and len = Array.make micro_n 0 in
    for k = 0 to micro_n - 1 do
      at.(k) <- Buffer.length buf;
      Printf.bprintf buf "%.17g\n" (Numerics.Rng.uniform rng 0.999998 0.9999999);
      len.(k) <- Buffer.length buf - at.(k) - 1
    done;
    let text = Buffer.contents buf in
    ols_nanos ~name:"decimal_parse_1e6" (fun () ->
        let sum = ref 0.0 in
        for k = 0 to micro_n - 1 do
          sum := !sum +. Numerics.Decimal.of_span text at.(k) len.(k)
        done;
        !sum)
  in
  [ quantile_sort; quantile_select; empirical_quantile_boxed;
    empirical_quantile_soa; mixture_scalar; mixture_soa; sketch_add;
    posterior_demands; sketch_merge; sketch_merge_into; columns_save;
    columns_load; columns_load_mmap; rng_scalar; rng_fill; decimal_parse ]

(* ------------------------------------------------------------------ *)
(* Case-graph rows at the ROADMAP's 10^6-node scale.  The headline
   configuration (legs 9, fanout 10, depth 5, no sharing) is exactly one
   million nodes; leaf confidences are drawn from a band tight under 1.0
   so the ~111k-leaf AND products stay far from underflow — a product
   that collapsed to 0.0 would let the incremental engine's bitwise early
   cut-off skip all real work and fake the edit rows.  A second
   propagation row runs the shared-evidence DAG configuration, where the
   C009 overlap floors the correlation.  The bitwise contracts these
   kernels keep are checked by dune runtest (test_graph, test_audit,
   test_serve). *)

let case_seed = Repro.Paper.seed + 101
let leaf_lo = 0.999998
let leaf_hi = 0.9999999

let headline_case ?shared () =
  Casekit.Generate.case ~seed:case_seed ~legs:9 ~fanout:10 ~depth:5 ?shared
    ~leaf:(leaf_lo, leaf_hi) ()

(* The headline shape as an authored case file: ids G<i>, E<i> and A<i>
   in document order, a statement unique to every node (C009 matches
   evidence by statement, so repeats would turn the audit into a stream
   of warnings) and an assumption on every 97th goal.  The two case rows
   time the file path on it: the streamed loader behind [confcase
   propagate FILE] and the lint-plus-audit behind [confcase audit
   FILE]. *)
let named_case_text () =
  let rng = Numerics.Rng.create (case_seed + 2) in
  let buf = Buffer.create (90 * 1_000_000) in
  let goals = ref 0 and leaves = ref 0 and assumptions = ref 0 in
  let pad indent = Buffer.add_string buf (String.make (2 * indent) ' ') in
  let rec node indent level =
    if level = 0 then begin
      let e = !leaves in
      incr leaves;
      pad indent;
      Printf.bprintf buf "evidence E%d \"Evidence E%d supports its parent claim\" %.17g\n"
        e e (Numerics.Rng.uniform rng leaf_lo leaf_hi)
    end
    else begin
      let g = !goals in
      incr goals;
      let any = indent = 0 || Numerics.Rng.bernoulli rng 0.2 in
      pad indent;
      Printf.bprintf buf "goal G%d \"Claim G%d holds\" %s\n" g g (if any then "any" else "all");
      if g mod 97 = 96 then begin
        let a = !assumptions in
        incr assumptions;
        pad (indent + 1);
        Printf.bprintf buf "assume A%d \"Assumption A%d about G%d is valid\" %.17g\n" a a g
          (Numerics.Rng.uniform rng 0.9995 0.99999)
      end;
      for _ = 1 to if indent = 0 then 9 else 10 do
        node (indent + 1) (level - 1)
      done
    end
  in
  node 0 6;
  Buffer.contents buf

(* The headline shape pushed into a builder with one fixed confidence
   and no RNG: anonymous leaves, [all] goals under an [any] root, each
   goal's children a slice of one reused array.  Returns the builder,
   not yet built, and its root. *)
let headline_fill () =
  let module B = Casekit.Graph.Builder in
  let b = B.create ~capacity:(Casekit.Generate.node_count ~legs:9 ~fanout:10 ~depth:5) () in
  let kids = Array.make 64 0 in
  let rec node level depth =
    if level = 0 then B.evidence b ~confidence:leaf_hi ()
    else begin
      let base = depth * 10 in
      for k = 0 to 9 do
        kids.(base + k) <- node (level - 1) (depth + 1)
      done;
      B.goal b ~combinator:Casekit.Node.All ~pos:base ~len:10 kids
    end
  in
  let legs = Array.make 9 0 in
  for j = 0 to 8 do
    legs.(j) <- node 5 0
  done;
  (b, B.goal b ~combinator:Casekit.Node.Any legs)

(* [g] is the headline case, not yet propagated. *)
let graph_rows g =
  let module G = Casekit.Graph in
  let dep = G.Correlated 0.3 in
  let dag = headline_case ~shared:0.1 () in
  let build = ols_nanos ~name:"graph_build_1e6" headline_case in
  (* The build split into filling the builder and [build] alone, and
     the first edit of a fresh graph, which builds the parent CSR and
     dirty map that [build] leaves for first use. *)
  let fill = ols_nanos ~name:"graph_fill_1e6" headline_fill in
  let finish =
    p50 ~name:"graph_finish_1e6" ~iters:9 (fun _ -> headline_fill ()) (fun (b, root) ->
        G.Builder.build b ~root)
  in
  let first_edit =
    p50 ~name:"graph_first_edit_1e6" ~iters:9
      (fun _ ->
        let b, root = headline_fill () in
        let g = G.Builder.build b ~root in
        ignore (G.propagate dep g);
        g)
      (fun g ->
        G.set_evidence g 0 leaf_lo;
        G.refresh dep g)
  in
  let prop = ols_nanos ~name:"graph_propagate_1e6" (fun () -> G.propagate dep g) in
  (* Level-parallel propagation at a fixed 2 domains and 64 chunks; its
     bit-identity to [propagate] is a test, this row is its cost. *)
  let prop_par =
    Numerics.Parallel.with_pool ~num_domains:2 (fun pool ->
        ols_nanos ~name:"graph_propagate_par_1e6" (fun () ->
            G.propagate_par ~pool ~chunks:64 dep g))
  in
  let prop_dag =
    ols_nanos ~name:"graph_propagate_dag_1e6" (fun () -> G.propagate dep dag)
  in
  (* Edit storm through the incremental engine. *)
  ignore (G.propagate dep g);
  let leaves = G.evidence_indices g in
  let rng = Numerics.Rng.create (case_seed + 1) in
  let edit =
    ols_nanos ~name:"graph_incremental_edit_1e6" (fun () ->
        let i = leaves.(Numerics.Rng.int rng (Array.length leaves)) in
        G.set_evidence g i (Numerics.Rng.uniform rng leaf_lo leaf_hi);
        G.refresh dep g)
  in
  (* The structural rules as linear CSR sweeps, then the full semantic
     audit (interval bounds, vacuity probes, SPOF dominators) at a
     target the headline configuration attains. *)
  let lint = ols_nanos ~name:"graph_lint_1e6" (fun () -> Analysis.Audit.lint g) in
  let options =
    { Analysis.Audit.default_options with target = Some 0.9; dependence = dep }
  in
  let audit =
    ols_nanos ~name:"graph_audit_1e6" (fun () -> Analysis.Audit.graph ~options g)
  in
  let text = named_case_text () in
  let case_graph =
    ols_nanos ~name:"case_graph_1e6" (fun () -> Casekit.Case_format.graph text)
  in
  let case_audit =
    ols_nanos ~name:"case_audit_1e6" (fun () -> Analysis.Audit.case ~options text)
  in
  [ build; fill; finish; first_edit; prop; prop_par; prop_dag; edit; lint; audit; case_graph;
    case_audit ]

(* ------------------------------------------------------------------ *)
(* Engine rows: the daemon's request path on the headline case — JSON
   decode, memo, graph work, JSON encode — timed per request with the
   monotonic clock, so nanos_per_run is the p50 latency (a cold evaluate
   and an incremental edit differ by orders of magnitude; a mean over a
   mixture would describe neither).  Cold flushes before every evaluate,
   so each pays the full propagation; edit sends random leaf values
   through the dirty-cone refresh; [leaves] are the headline case's
   evidence indices. *)

let engine_rows leaves =
  let eng = Serve.Engine.create () in
  let num x = Serve.Protocol.print (Serve.Protocol.Num x) in
  ignore
    (Serve.Engine.handle eng
       (Printf.sprintf
          "{\"op\":\"generate\",\"case\":\"bench\",\"seed\":%d,\"legs\":9,\
           \"fanout\":10,\"depth\":5,\"leaf_lo\":%s,\"leaf_hi\":%s}"
          case_seed (num leaf_lo) (num leaf_hi)));
  let request ~name ~iters ~prepare line =
    p50 ~name ~iters (fun k -> prepare (); line k) (Serve.Engine.handle eng)
  in
  let eval = "{\"op\":\"evaluate\",\"case\":\"bench\",\"dependence\":0.3}" in
  let cold =
    request ~name:"serve_cold_eval_1e6" ~iters:15
      ~prepare:(fun () -> ignore (Serve.Engine.handle eng "{\"op\":\"flush\"}"))
      (fun _ -> eval)
  in
  let rng = Numerics.Rng.create (case_seed + 7) in
  let edits =
    Array.init 2000 (fun _ ->
        let i = leaves.(Numerics.Rng.int rng (Array.length leaves)) in
        (i, Numerics.Rng.uniform rng leaf_lo leaf_hi))
  in
  let edit =
    request ~name:"serve_edit_1e6" ~iters:(Array.length edits) ~prepare:ignore (fun k ->
        let i, v = edits.(k) in
        Printf.sprintf
          "{\"op\":\"edit\",\"case\":\"bench\",\"node\":%d,\"value\":%s,\
           \"dependence\":0.3}"
          i (num v))
  in
  [ cold; edit ]

(* ------------------------------------------------------------------ *)
(* JSON: one fixed schema.  Rows are added and never renamed, so any two
   files compare on the rows they share (scripts/bench_compare.py). *)

let json_float f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

(* Row names are fixed identifiers, so they need no escaping. *)
let json_row r =
  Printf.sprintf "{\"name\": \"%s\", \"nanos_per_run\": %s, \"samples\": %d"
    r.name (json_float r.nanos) r.samples

let json_vr v =
  Printf.sprintf
    "%s, \"method\": \"%s\", \"mean\": %s, \"std_error\": %s, \"n\": %d, \
     \"efficiency_vs_plain\": %s"
    (json_row { v.vr_r with name = v.vr_name })
    v.vr_method (json_float v.vr_mean) (json_float v.vr_se) v.vr_n
    (json_float v.vr_efficiency)

(* The CPU model as /proc/cpuinfo names it, or "unknown". *)
let cpu_model () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> "unknown"
  | text ->
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | Some i when String.trim (String.sub line 0 i) = "model name" ->
          Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        | _ -> None)
      (String.split_on_char '\n' text)
    |> Option.value ~default:"unknown"

(* A JSON string literal: quotes, backslashes and control bytes escaped. *)
let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' -> Buffer.add_char b '\\'; Buffer.add_char b c
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* What the numbers were measured on: the build profile (the dev profile
   compiles with -opaque, so nothing is inlined across modules), the
   CPUs and the compiler. *)
let json_env () =
  Printf.sprintf
    "  \"env\": {\"profile\": %s, \"nproc\": %d, \"cpu_model\": %s, \"ocaml_version\": %s}"
    (json_string Build_profile.name)
    (Domain.recommended_domain_count ())
    (json_string (cpu_model ()))
    (json_string Sys.ocaml_version)

let write_json oc ~experiments ~micro ~vr ~graph ~edit_speedup =
  let section name rows =
    Printf.sprintf "  \"%s\": [\n%s\n  ]" name
      (String.concat ",\n" (List.map (fun r -> "    " ^ r ^ "}") rows))
  in
  Printf.fprintf oc "{\n  \"schema\": \"confcase-bench\",\n%s,\n%s,\n%s,\n%s,\n%s,\n"
    (json_env ())
    (section "experiments" (List.map json_row experiments))
    (section "micro" (List.map json_row micro))
    (section "vr" (List.map json_vr vr))
    (section "graph" (List.map json_row graph));
  Printf.fprintf oc "  \"edit_speedup_vs_cold\": %s\n}\n" (json_float edit_speedup);
  close_out oc

let run_json path =
  (* Open the output up front: an unwritable path must fail before the
     benchmarks spend minutes running, not after. *)
  let oc =
    try open_out path
    with Sys_error msg ->
      Printf.eprintf "cannot write %s\n" msg;
      exit 1
  in
  let section title rows =
    Printf.printf "\n################ %s ################\n\n" title;
    print_rows rows;
    rows
  in
  let experiments = section "Bechamel timings" (time_experiments ()) in
  let g = headline_case () in
  let micro =
    section "Micro regressions"
      (micro_rows () @ engine_rows (Casekit.Graph.evidence_indices g))
  in
  print_endline
    "\n################ Variance reduction (equal sample budget) \
     ################\n";
  let vr = vr_rows () in
  print_vr_rows vr;
  let graph = section "Case graphs (10^6 nodes)" (graph_rows g) in
  let nanos name = (List.find (fun r -> r.name = name) micro).nanos in
  let edit_speedup = nanos "serve_cold_eval_1e6" /. nanos "serve_edit_1e6" in
  write_json oc ~experiments ~micro ~vr ~graph ~edit_speedup;
  Printf.printf "\nincremental edit p50 vs cold evaluate p50: %.0fx\nwrote %s\n"
    edit_speedup path;
  if not (edit_speedup >= 10.0) then begin
    prerr_endline "bench: an incremental edit is less than 10x faster than a cold evaluate";
    exit 1
  end

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] ->
    run_reproductions ();
    run_perf ()
  | [ "--no-perf" ] -> run_reproductions ()
  | [ "--json"; path ] -> run_json path
  | [ "--json" ] ->
    prerr_endline "--json requires an output path, e.g. --json bench.json";
    exit 1
  | _ ->
    prerr_endline "usage: main.exe [--no-perf | --json <path>]";
    exit 1
