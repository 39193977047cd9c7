let section title body =
  let rule = String.make (String.length title) '=' in
  Printf.sprintf "%s\n%s\n%s\n" title rule body

(* Monte-Carlo loops below run on the domain pool (CONFCASE_DOMAINS, default
   all cores).  Chunk counts are fixed constants so the regenerated numbers
   are bit-identical whatever the machine's core count. *)
let mc_chunks = 64

(* All experiment sections share one lazily-created pool ([global_pool]):
   spawning domains per section was a large fixed cost and, worse, per-call
   spawn/join barriers dominated the PR-1 parallel numbers.  [run_one
   ~pool] swaps in another pool for the duration of one experiment. *)
let pool_override = ref None

let with_default_pool f =
  match !pool_override with
  | Some pool -> f pool
  | None -> f (Numerics.Parallel.global_pool ())

let table1 () =
  section "Table 1: IEC 61508 safety integrity levels"
    ("Low-demand mode (average pfd):\n"
    ^ Sil.Band.table_1 ~mode:Sil.Band.Low_demand
    ^ "\nContinuous mode (dangerous failures per hour):\n"
    ^ Sil.Band.table_1 ~mode:Sil.Band.Continuous)

let density_series ~log_grid =
  let beliefs = Paper.figure1_beliefs () in
  let grid =
    if log_grid then Numerics.Interp.logspace 1e-4 1e-1 61
    else Numerics.Interp.linspace 1e-4 3e-2 61
  in
  List.map
    (fun (label, (d : Dist.t)) ->
      Report.Series.make label
        (Array.to_list (Array.map (fun x -> (x, d.pdf x)) grid)))
    beliefs

let checkpoint_lines () =
  let lines =
    List.map
      (fun (label, (d : Dist.t)) ->
        Printf.sprintf
          "  %s: mode=%.4g mean=%.4g  P(SIL2+)=%.4f  P(SIL1+)=%.4f" label
          (Option.get d.mode) d.mean (d.cdf Paper.sil2_bound) (d.cdf 1e-1))
      (Paper.figure1_beliefs ())
  in
  String.concat "\n" lines

let figure1 () =
  let series = density_series ~log_grid:true in
  section "Figure 1: density functions of the judgement of SIL (log scale)"
    (Report.Ascii_plot.plot ~x_scale:Report.Ascii_plot.Log10 series
    ^ "\nPaper checkpoints (mode fixed at 0.003):\n"
    ^ checkpoint_lines ()
    ^ "\n\nThe widest curve's mean (0.01) sits in SIL1 although the mode is \
       mid-SIL2.\n")

let figure2 () =
  let series = density_series ~log_grid:false in
  section "Figure 2: the same densities on a linear scale"
    (Report.Ascii_plot.plot series
    ^ "\nSeries table:\n"
    ^ Report.Series.render_table ~x_label:"pfd" series)

let figure3_series family =
  let sigmas = Numerics.Interp.linspace 0.15 1.8 34 in
  let points =
    Sil.Judgement.mean_vs_confidence family ~mode_value:Paper.mode
      ~band:Sil.Band.Sil2 ~sigmas
  in
  Report.Series.make
    (Printf.sprintf "mean pfd (%s)" (Sil.Judgement.family_to_string family))
    (Array.to_list
       (Array.map (fun (conf, mean) -> (conf *. 100.0, mean)) points))

let figure3 () =
  let series = figure3_series Sil.Judgement.Lognormal in
  let sigma, conf =
    Sil.Judgement.crossover Sil.Judgement.Lognormal ~mode_value:Paper.mode
      ~band:Sil.Band.Sil2
  in
  section
    "Figure 3: effect of spread on the mean value (mode fixed at 0.003)"
    (Report.Ascii_plot.plot ~y_scale:Report.Ascii_plot.Log10 [ series ]
    ^ Printf.sprintf
        "\nCrossover: when confidence in SIL2 falls below %.1f%% (sigma = \
         %.3f),\nthe mean rate leaves the SIL2 band (paper: \"about 67%%\").\n"
        (conf *. 100.0) sigma
    ^ "\nSeries (x = confidence in SIL2, %):\n"
    ^ Report.Series.render_table ~x_label:"conf %" [ series ])

let figure4 () =
  let bounds = Numerics.Interp.logspace 1e-5 1e-1 17 in
  let series =
    List.map
      (fun (label, (d : Dist.t)) ->
        Report.Series.make label
          (Array.to_list (Array.map (fun b -> (b, d.cdf b)) bounds)))
      (Paper.figure1_beliefs ())
  in
  let wide = List.nth (Paper.figure1_beliefs ()) 2 in
  let d = snd wide in
  section "Figure 4: confidence that the failure rate is better than a bound"
    (Report.Ascii_plot.plot ~x_scale:Report.Ascii_plot.Log10 series
    ^ "\nSeries table (x = pfd bound):\n"
    ^ Report.Series.render_table ~x_label:"bound" series
    ^ Printf.sprintf
        "\nWidest spread: %.1f%% chance of SIL2 or higher, %.2f%% chance of \
         SIL1 or higher\n(paper: \"about a 67%% chance ... and a 99.9%% \
         chance\").\n"
        (100.0 *. d.Dist.cdf 1e-2)
        (100.0 *. d.Dist.cdf 1e-1))

let figure5 () =
  let result = Elicit.Delphi.run Elicit.Delphi.default_config in
  let per_expert =
    let final = Elicit.Delphi.final result in
    let columns =
      [ { Report.Table.header = "expert"; align = Report.Table.Left };
        { Report.Table.header = "profile"; align = Report.Table.Left };
        { Report.Table.header = "mode pfd"; align = Report.Table.Right };
        { Report.Table.header = "sigma"; align = Report.Table.Right };
        { Report.Table.header = "P(SIL2+)"; align = Report.Table.Right } ]
    in
    let rows =
      List.map
        (fun (e : Elicit.Delphi.expert) ->
          let belief = Elicit.Delphi.belief_of e in
          [ Printf.sprintf "#%d" (e.id + 1);
            (match e.profile with
            | Elicit.Delphi.Believer -> "believer"
            | Elicit.Delphi.Doubter -> "doubter");
            Report.Table.float_cell (exp e.log_peak);
            Report.Table.float_cell e.sigma;
            Report.Table.float_cell (belief.Dist.cdf Paper.sil2_bound) ])
        final.experts
    in
    Report.Table.render ~columns ~rows
  in
  let final = Elicit.Delphi.final result in
  (* Replication study: the calibrated panel re-seeded many times, fanned
     out over the domain pool.  Each sample runs a full 4-phase panel. *)
  let replicate rng =
    let panel_seed = Int64.to_int (Numerics.Rng.bits64 rng) in
    let result =
      Elicit.Delphi.run
        { Elicit.Delphi.default_config with seed = panel_seed }
    in
    (Elicit.Delphi.final result).confidence_sil2
  in
  (* One fan-out for both views of the replication: each chunk's panels
     run once, and the column of outcomes feeds a Welford state (the mean
     and CI, equal bit for bit to [estimate_par] over [replicate], since
     [fill_col_of_scalar] draws slot by slot) and a mergeable quantile
     sketch (percentiles without materialising the sample array). *)
  let replication, rep_quantiles =
    with_default_pool (fun pool ->
        Sim.Mc.estimate_quantiles_par ~pool ~n:200 ~chunks:16
          ~seed:(Paper.seed + 5) ~ps:[| 0.1; 0.5; 0.9 |]
          (fun () -> Sim.Mc.fill_col_of_scalar replicate))
  in
  (* QMC variant of the replication: panel seeds come from a scrambled
     Sobol stratification of the seed space instead of an RNG stream.
     Panel outcome is effectively i.i.d. noise in the seed, so no QMC
     rate gain is expected — the point is that the stratified design and
     its replicate error bars agree with the plain fan-out. *)
  let panel_of_u u =
    let panel_seed = int_of_float (u *. 1073741824.0) in
    let result =
      Elicit.Delphi.run { Elicit.Delphi.default_config with seed = panel_seed }
    in
    (Elicit.Delphi.final result).confidence_sil2
  in
  let replication_qmc =
    with_default_pool (fun pool ->
        Sim.Mc.estimate_qmc ~pool ~replicates:8 ~dim:1 ~n:25
          ~seed:(Paper.seed + 7)
          (fun p -> panel_of_u (Float.Array.get p 0)) (* lint: allow-floatarray *))
  in
  let qmc_quantiles =
    (* One scrambled net of 200 stratified seeds for the percentile view. *)
    let s =
      Numerics.Sobol.create
        ~scramble:(Numerics.Rng.create (Paper.seed + 8)) ~dim:1 ()
    in
    let buf = Stdlib.Float.Array.create 1 (* lint: allow-floatarray *) in
    let us =
      Array.init 200 (fun _ ->
          Numerics.Sobol.next s buf;
          Stdlib.Float.Array.get buf 0 (* lint: allow-floatarray *))
    in
    (* The net is drawn in order; the panels are independent, so they run
       over the pool and come back in point order. *)
    let outcomes =
      with_default_pool (fun pool ->
          Numerics.Parallel.map_chunks ~pool ~chunks:200 (fun i ->
              panel_of_u us.(i)))
    in
    Array.map
      (fun p -> Numerics.Summary.quantile_unsorted outcomes p)
      [| 0.1; 0.5; 0.9 |]
  in
  section "Figure 5: simulated expert experiment (12 experts, 4 phases)"
    (Elicit.Delphi.summary_table result
    ^ "\nFinal-phase panel:\n" ^ per_expert
    ^ Printf.sprintf
        "\nEnd state: believers' pooled judgement is %.0f%% confident of \
         SIL2-or-better\nwhile the pooled mean pfd (%.4g) sits on the \
         SIL2/SIL1 boundary\n(paper: \"about 90%% confident ... yet the \
         resulting pfd (0.01) is on the 2-1 boundary\").\n%d of 12 experts \
         are doubters reporting very high rates.\n"
        (100.0 *. final.confidence_sil2)
        final.pooled_mean
        (List.length final.doubter_modes)
    ^ Printf.sprintf
        "\nReplication (200 re-seeded panels, parallel fan-out over 16 \
         streams): final\nbelievers' P(SIL2+) averages %.3f (95%% CI \
         [%.3f, %.3f]) — the reported end\nstate is the panel protocol's \
         central tendency, not a seed artefact.\n"
        replication.Sim.Mc.mean replication.Sim.Mc.ci95_lo
        replication.Sim.Mc.ci95_hi
    ^ Printf.sprintf
        "Replication percentiles (same streams, t-digest sketch): p10 = \
         %.3f,\np50 = %.3f, p90 = %.3f.\n"
        rep_quantiles.(0) rep_quantiles.(1) rep_quantiles.(2)
    ^ Printf.sprintf
        "\nQMC variant (8 scrambled Sobol replicates x 25 \
         seed-stratified panels):\nmean %.3f (95%% CI [%.3f, %.3f]); \
         percentiles from a 200-point net:\np10 = %.3f, p50 = %.3f, p90 = \
         %.3f.  Panel outcome is noise in the seed,\nso QMC buys no rate \
         gain here — agreement with the plain fan-out above\nis the check \
         that the stratified design is unbiased.\n"
        replication_qmc.Sim.Mc.mean replication_qmc.Sim.Mc.ci95_lo
        replication_qmc.Sim.Mc.ci95_hi qmc_quantiles.(0) qmc_quantiles.(1)
        qmc_quantiles.(2))

let conservative_examples () =
  let examples_at target =
    let rows =
      List.map
        (fun (label, (claim : Confidence.Claim.t), bound) ->
          [ label;
            Report.Table.float_cell claim.bound;
            Report.Table.float_cell (Confidence.Claim.doubt claim);
            Report.Table.float_cell bound ])
        (Confidence.Conservative.examples ~target)
    in
    Report.Table.render
      ~columns:
        [ { Report.Table.header = "example"; align = Report.Table.Left };
          { Report.Table.header = "claim bound y*"; align = Report.Table.Right };
          { Report.Table.header = "doubt x*"; align = Report.Table.Right };
          { Report.Table.header = "x*+y*-x*y*"; align = Report.Table.Right } ]
      ~rows
  in
  let feasibility target =
    let bounds = Numerics.Interp.logspace (target /. 1e4) target 9 in
    let profile = Confidence.Conservative.feasibility_profile ~target ~bounds in
    let rows =
      Array.to_list profile
      |> List.map (fun (bound, conf) ->
             [ Report.Table.float_cell bound;
               (match conf with
               | Some c -> Printf.sprintf "%.6f" c
               | None -> "infeasible") ])
    in
    Report.Table.render
      ~columns:
        [ { Report.Table.header = "claim bound y*"; align = Report.Table.Right };
          { Report.Table.header = "required confidence"; align = Report.Table.Right } ]
      ~rows
  in
  (* Monte-Carlo check of inequality (5), fanned out over the domain pool;
     the fixed (seed, chunks) pair keeps the number machine-independent. *)
  let claim = Confidence.Claim.make ~bound:1e-4 ~confidence:0.9991 in
  let estimate, bound =
    with_default_pool (fun pool ->
        Sim.Demand_sim.check_conservative_bound_par ~pool ~n:300_000
          ~chunks:mc_chunks ~seed:Paper.seed claim)
  in
  (* A concrete belief that just meets Example 3 — lognormal with sigma 1
     whose 0.9991 quantile sits exactly at the claim bound 1e-4 — and its
     doubt masses beyond stricter thresholds, resolved by importance
     sampling.  The doubt at the bound itself (9e-4) would already need
     ~10^7 plain draws for a 10% relative error; the tilted proposal gets
     calibrated CIs on all rows from 1e5. *)
  let example3_belief =
    let z = Dist.Normal.standard.Dist.quantile 0.9991 in
    Dist.Lognormal.make ~mu:(log 1e-4 -. z) ~sigma:1.0
  in
  let is_doubt_rows =
    List.map
      (fun y ->
        let e =
          with_default_pool (fun pool ->
              Sim.Demand_sim.pfd_tail_is ~pool ~n:100_000 ~chunks:mc_chunks
                ~seed:(Paper.seed + 47) ~y
                (Dist.Mixture.of_dist example3_belief))
        in
        let p = e.Sim.Mc.plain in
        [ Printf.sprintf "%.0e" y;
          Printf.sprintf "%.4e +/- %.1e" p.Sim.Mc.mean p.Sim.Mc.std_error;
          Printf.sprintf "%.4e" (Dist.survival example3_belief y);
          Printf.sprintf "%.0f" e.Sim.Mc.ess ])
      [ 1e-4; 1e-3; 1e-2 ]
  in
  section
    "Section 3.4: conservative bound P(fail) <= x + y - x*y, worked examples"
    ("Target claim: pfd-related failure probability below 1e-3\n\n"
    ^ examples_at 1e-3
    ^ "\nRequired confidence per claim bound (target 1e-3):\n"
    ^ feasibility 1e-3
    ^ "\nThe same profile at the stringent target 1e-5 (paper: \"it seems \
       unlikely that\nreal experts would ever express confidence of this \
       magnitude\"):\n"
    ^ feasibility 1e-5
    ^ Printf.sprintf
        "\nMonte-Carlo check of (5): worst-case belief for Example 3 gives \
         a simulated\nfailure probability of %.6f +/- %.6f per demand vs \
         the analytic bound %.6f.\n"
        estimate.Sim.Mc.mean estimate.Sim.Mc.std_error bound
    ^ "\nImportance-sampled doubt masses P(pfd > y) for a lognormal belief \
       (sigma = 1)\njust meeting Example 3 (0.9991 quantile at 1e-4):\n\n"
    ^ Report.Table.render
        ~columns:
          [ { Report.Table.header = "threshold y"; align = Report.Table.Right };
            { Report.Table.header = "IS doubt"; align = Report.Table.Right };
            { Report.Table.header = "analytic"; align = Report.Table.Right };
            { Report.Table.header = "ESS"; align = Report.Table.Right } ]
        ~rows:is_doubt_rows
    ^ "\nThe first row recovers the claimed doubt x* = 9e-4; the others \
       show how thin\nthe belief's mass is beyond the SIL3 and SIL2 \
       boundaries.\n")

let perfection_bound () =
  let claim = Confidence.Claim.make ~bound:1e-4 ~confidence:0.9991 in
  let p0s = [| 0.0; 0.1; 0.3; 0.5; 0.9; 0.999 |] in
  let rows =
    Array.to_list p0s
    |> List.map (fun p0 ->
           [ Report.Table.float_cell p0;
             Printf.sprintf "%.3e"
               (Confidence.Conservative.failure_bound_perfection claim ~p0) ])
  in
  let factor_rows =
    [ 1.0; 10.0; 100.0; 1e4; 1e6 ]
    |> List.map (fun k ->
           [ Report.Table.float_cell k;
             Printf.sprintf "%.3e"
               (Confidence.Conservative.failure_bound_factor claim ~k) ])
  in
  section "Section 3.4 variants: perfection mass and factor-k doubt"
    ("Claim: P(pfd < 1e-4) >= 0.9991 (Example 3).  Bound x + y - (x + p0)y \
      as the\nbelief in perfection p0 grows:\n\n"
    ^ Report.Table.render
        ~columns:
          [ { Report.Table.header = "p0 (perfection mass)"; align = Report.Table.Right };
            { Report.Table.header = "failure bound"; align = Report.Table.Right } ]
        ~rows
    ^ "\n\"Sure we are not wrong by more than a factor k\" (doubt mass at \
       min(k*y, 1)):\n\n"
    ^ Report.Table.render
        ~columns:
          [ { Report.Table.header = "k"; align = Report.Table.Right };
            { Report.Table.header = "failure bound"; align = Report.Table.Right } ]
        ~rows:factor_rows)

let standards () =
  let belief sigma = Dist.Lognormal.of_mode_sigma ~mode:Paper.mode ~sigma in
  let confidences = [ 0.70; 0.95; 0.99; 0.999 ] in
  let widest = belief (Paper.figure1_sigmas ()).(2) in
  let mixture = Dist.Mixture.of_dist widest in
  let rows =
    List.map
      (fun conf ->
        let verdict =
          Confidence.Decision.assess
            (Confidence.Decision.requirement ~band:Sil.Band.Sil2
               ~confidence:conf)
            mixture
        in
        let claimable =
          Confidence.Decision.strongest_claimable ~confidence:conf mixture
        in
        [ Printf.sprintf "%.1f%%" (conf *. 100.0);
          Confidence.Decision.verdict_to_string verdict;
          (match claimable with
          | Some b -> Sil.Band.to_string b
          | None -> "none") ])
      confidences
  in
  let requirement_table =
    Report.Table.render
      ~columns:
        [ { Report.Table.header = "required confidence"; align = Report.Table.Right };
          { Report.Table.header = "verdict on SIL2 claim"; align = Report.Table.Left };
          { Report.Table.header = "strongest claimable"; align = Report.Table.Left } ]
      ~rows
  in
  let discount_rows =
    List.map
      (fun rigour ->
        let judged, claim =
          Sil.Discount.judge_then_claim Sil.Discount.default_policy rigour
            mixture
        in
        [ Sil.Discount.rigour_to_string rigour;
          Sil.Band.classification_to_string judged;
          (match claim with
          | Some b -> Sil.Band.to_string b
          | None -> "no quantified claim") ])
      [ Sil.Discount.Qualitative_only; Sil.Discount.Standards_compliance;
        Sil.Discount.Growth_model; Sil.Discount.Worst_case_quantitative ]
  in
  let conservative_sil2 =
    Confidence.Conservative.required_confidence ~target:1e-2 ~bound:1e-3
  in
  section "Section 4.3: standards implications (IEC 61508 confidence levels)"
    ("Judgement: lognormal, mode 0.003 (mid-SIL2), widest Figure-1 spread.\n\n"
    ^ requirement_table
    ^ "\nApplying the 70% requirement of IEC 61508 Part 2 already pushes \
       the claim to\nthe band the mean occupies; broader spreads lose more \
       (paper Section 4.3).\n"
    ^ "\nClaim discounts by argument rigour (mean-based judgement of the \
       same belief):\n" ^ Report.Table.render
        ~columns:
          [ { Report.Table.header = "argument rigour"; align = Report.Table.Left };
            { Report.Table.header = "judged"; align = Report.Table.Left };
            { Report.Table.header = "claimable"; align = Report.Table.Left } ]
        ~rows:discount_rows
    ^ Printf.sprintf
        "\nConservative route to SIL2: claiming pfd < 1e-3 as the means to \
         \"failure\nprobability < 1e-2\" needs confidence %.4f (paper: \"we \
         would need at least 99%%\nconfidence in SIL2\").\n"
        conservative_sil2)

let gamma_sensitivity () =
  let ln = figure3_series Sil.Judgement.Lognormal in
  let gm = figure3_series Sil.Judgement.Gamma in
  let s_ln, c_ln =
    Sil.Judgement.crossover Sil.Judgement.Lognormal ~mode_value:Paper.mode
      ~band:Sil.Band.Sil2
  in
  let s_gm, c_gm =
    Sil.Judgement.crossover Sil.Judgement.Gamma ~mode_value:Paper.mode
      ~band:Sil.Band.Sil2
  in
  section "Sensitivity: Figure 3 under a gamma judgement distribution"
    (Printf.sprintf
       "Crossover confidence (mean enters SIL1):\n  lognormal: %.1f%% at \
        sigma %.3f\n  gamma:     %.1f%% at matched dispersion %.3f\n\nThe \
        qualitative effect is identical; the paper notes \"the (low) \
        sensitivity\nto the log-normal assumptions\".\n\n"
       (c_ln *. 100.0) s_ln (c_gm *. 100.0) s_gm
    ^ "Mean pfd vs confidence, both families (x = confidence in SIL2, %):\n"
    ^ Report.Series.render_table ~x_label:"conf %"
        [ ln;
          (* Re-grid the gamma series onto the lognormal's x values is not
             meaningful; print separately instead. *)
        ]
    ^ "\n"
    ^ Report.Series.render_table ~x_label:"conf %" [ gm ])

let tail_cutoff () =
  let prior =
    Dist.Mixture.of_dist
      (Dist.Lognormal.of_mode_mean ~mode:Paper.mode ~mean:1e-2)
  in
  let ns = [ 0; 10; 30; 100; 300; 1000; 3000; 10000 ] in
  let traj =
    Experience.Tail_cutoff.trajectory prior ~bound:Paper.sil2_bound ~ns
  in
  let rows =
    List.map
      (fun (p : Experience.Tail_cutoff.point) ->
        [ string_of_int p.demands;
          Report.Table.float_cell p.mean;
          Report.Table.float_cell p.confidence;
          Sil.Band.classification_to_string p.judged;
          Report.Table.float_cell
            (Experience.Tail_cutoff.survival_probability prior ~n:p.demands) ])
      traj
  in
  let schedule =
    Experience.Provisional.upgrade_schedule prior ~required_confidence:0.9
      ~max_demands:1_000_000
  in
  (* Cross-check the analytic prior predictive E[(1-p)^n] by simulating a
     fleet on the parallel survival path. *)
  let mc_systems = 100_000 in
  let mc_curve =
    with_default_pool (fun pool ->
        Sim.Demand_sim.survival_curve_par ~pool ~n_systems:mc_systems
          ~chunks:mc_chunks ~seed:(Paper.seed + 41) ~checkpoints:ns prior)
  in
  let mc_rows =
    List.map
      (fun (n, simulated) ->
        [ string_of_int n;
          Report.Table.float_cell
            (Experience.Tail_cutoff.survival_probability prior ~n);
          Report.Table.float_cell simulated ])
      mc_curve
  in
  (* Sketch the prior itself: a bounded-memory t-digest over pfd draws
     recovers credible intervals and SIL band masses that the analytic
     mixture can confirm exactly. *)
  let sketch_n = 200_000 in
  let sketch =
    with_default_pool (fun pool ->
        Sim.Demand_sim.pfd_sketch_par ~pool ~n:sketch_n ~chunks:mc_chunks
          ~seed:(Paper.seed + 43) prior)
  in
  let sk_lo = Numerics.Sketch.quantile sketch 0.05 in
  let sk_hi = Numerics.Sketch.quantile sketch 0.95 in
  let an_lo, an_hi = Dist.Mixture.credible_interval prior ~level:0.9 in
  let band_mass lo hi cdf = cdf hi -. cdf lo in
  let sk_cdf = Numerics.Sketch.cdf sketch in
  let an_cdf x = Dist.Mixture.prob_le prior x in
  let sil2_sk = band_mass 1e-3 1e-2 sk_cdf in
  let sil2_an = band_mass 1e-3 1e-2 an_cdf in
  let sil1_sk = band_mass 1e-2 1e-1 sk_cdf in
  let sil1_an = band_mass 1e-2 1e-1 an_cdf in
  (* Importance-sampled tail masses P(pfd > y): where the sketch has
     sample support they must agree within the stated CIs; beyond it
     (y = 0.3 is a ~1e-5 event, ~2 hits in the sketch's 200k draws) the
     tilted proposal keeps resolving. *)
  let is_n = 100_000 in
  let is_tail y =
    with_default_pool (fun pool ->
        Sim.Demand_sim.pfd_tail_is ~pool ~n:is_n ~chunks:mc_chunks
          ~seed:(Paper.seed + 45) ~y prior)
  in
  let an_tail y = 1.0 -. Dist.Mixture.prob_le prior y in
  let sk_tail y = 1.0 -. sk_cdf y in
  let is_at_1e2 = is_tail 1e-2 in
  let is_rows =
    List.map
      (fun y ->
        let e = if y = 1e-2 then is_at_1e2 else is_tail y in
        let p = e.Sim.Mc.plain in
        [ Printf.sprintf "%.0e" y;
          Printf.sprintf "%.4e +/- %.1e" p.Sim.Mc.mean p.Sim.Mc.std_error;
          Printf.sprintf "%.4e" (an_tail y);
          (if y >= 0.3 then Printf.sprintf "%.1e (unsupported)" (sk_tail y)
           else Printf.sprintf "%.4e" (sk_tail y));
          Printf.sprintf "%.0f" e.Sim.Mc.ess ])
      [ 1e-2; 1e-1; 3e-1 ]
  in
  let is_sketch_agree =
    let p = is_at_1e2.Sim.Mc.plain in
    (* The sketch's own mid-range cdf error is a few 1e-3 (see
       Numerics.Sketch); agreement is judged against the IS CI widened by
       that tolerance. *)
    abs_float (p.Sim.Mc.mean -. sk_tail 1e-2)
    <= (1.96 *. p.Sim.Mc.std_error) +. 5e-3
  in
  section
    "Section 4.1: tail cut-off by failure-free operating experience"
    ("Prior: lognormal, mode 0.003, mean 0.01 (the widest Figure-1 \
      judgement).\n\n"
    ^ Report.Table.render
        ~columns:
          [ { Report.Table.header = "failure-free demands"; align = Report.Table.Right };
            { Report.Table.header = "mean pfd"; align = Report.Table.Right };
            { Report.Table.header = "P(SIL2+)"; align = Report.Table.Right };
            { Report.Table.header = "SIL by mean"; align = Report.Table.Left };
            { Report.Table.header = "P(survive n)"; align = Report.Table.Right } ]
        ~rows
    ^ "\n\"Tests rapidly increase confidence and reduce the mean\" — the \
       provisional-SIL\nupgrade schedule at 90% required confidence:\n\n"
    ^ Experience.Provisional.schedule_table schedule
    ^ Printf.sprintf
        "\nSimulated cross-check of P(survive n): %d systems drawn from the \
         prior, first\nfailures placed geometrically (parallel fan-out, %d \
         streams):\n\n"
        mc_systems mc_chunks
    ^ Report.Table.render
        ~columns:
          [ { Report.Table.header = "demands n"; align = Report.Table.Right };
            { Report.Table.header = "analytic E[(1-p)^n]"; align = Report.Table.Right };
            { Report.Table.header = "simulated"; align = Report.Table.Right } ]
        ~rows:mc_rows
    ^ Printf.sprintf
        "\nPrior summarised by a streaming quantile sketch (%d draws, \
         bounded memory):\n  90%% credible interval: sketch [%.4g, %.4g] vs \
         analytic [%.4g, %.4g]\n  P(SIL2 band [1e-3,1e-2)): sketch %.4f vs \
         analytic %.4f\n  P(SIL1 band [1e-2,1e-1)): sketch %.4f vs analytic \
         %.4f\n"
        sketch_n sk_lo sk_hi an_lo an_hi sil2_sk sil2_an sil1_sk sil1_an
    ^ Printf.sprintf
        "\nImportance-sampled tail masses P(pfd > y) (%d draws per row, \
         tilted\nlognormal proposal):\n\n" is_n
    ^ Report.Table.render
        ~columns:
          [ { Report.Table.header = "y"; align = Report.Table.Right };
            { Report.Table.header = "IS estimate"; align = Report.Table.Right };
            { Report.Table.header = "analytic"; align = Report.Table.Right };
            { Report.Table.header = "sketch"; align = Report.Table.Right };
            { Report.Table.header = "ESS"; align = Report.Table.Right } ]
        ~rows:is_rows
    ^ Printf.sprintf
        "\nIS vs sketch at y = 1e-2: %s within stated CIs; at y = 0.3 the \
         sketch has run\nout of samples (a ~1e-5 event) while the IS row \
         still reports a calibrated CI.\n"
        (if is_sketch_agree then "agreement" else "DISAGREEMENT"))

let multileg () =
  let leg1 = Casekit.Multileg.leg ~label:"primary argument" ~doubt:0.05 in
  let leg2 = Casekit.Multileg.leg ~label:"diverse second leg" ~doubt:0.05 in
  let sweep = Casekit.Multileg.dependence_sweep leg1 leg2 ~n:11 in
  let series =
    Report.Series.make "combined doubt" (Array.to_list sweep)
  in
  (* BBN version: the dependence arises from a shared assumption. *)
  let bn = Casekit.Bbn.create () in
  let assumption =
    Casekit.Bbn.add_var bn ~name:"shared assumption" ~states:[| "f"; "t" |]
      ~parents:[] ~cpt:[| 0.05; 0.95 |]
  in
  let leg alpha name =
    Casekit.Bbn.add_var bn ~name ~states:[| "fails"; "holds" |]
      ~parents:[ assumption ]
      ~cpt:[| 0.95; 0.05; 1.0 -. alpha; alpha |]
  in
  let l1 = leg 0.97 "leg1" in
  let l2 = leg 0.97 "leg2" in
  let claim =
    Casekit.Bbn.add_var bn ~name:"claim" ~states:[| "unsupported"; "supported" |]
      ~parents:[ l1; l2 ]
      ~cpt:[| 1.0; 0.0; 0.0; 1.0; 0.0; 1.0; 0.0; 1.0 |]
  in
  let p_supported = Casekit.Bbn.prob bn ~evidence:[] claim 1 in
  let p_l2_fail = Casekit.Bbn.prob bn ~evidence:[] l2 0 in
  let p_l2_fail_given_l1 = Casekit.Bbn.prob bn ~evidence:[ (l1, 0) ] l2 0 in
  section "Section 4.2: multi-legged arguments and dependence"
    ("Two legs, each with doubt 0.05.  Combined doubt vs failure-event \
      dependence rho:\n\n"
    ^ Report.Series.render_table ~x_label:"rho" [ series ]
    ^ Printf.sprintf
        "\nIndependence would claim doubt %.4g; total dependence leaves \
         %.4g — the\nsecond leg's benefit erodes as the legs share \
         underpinnings.\n"
        (Casekit.Multileg.combined_doubt leg1 leg2)
        (Casekit.Multileg.combined_doubt ~dependence:1.0 leg1 leg2)
    ^ Printf.sprintf
        "\nBBN with an explicit shared assumption (P(valid) = 0.95):\n  \
         P(claim supported)          = %.4f\n  P(leg2 fails)               \
         = %.4f\n  P(leg2 fails | leg1 failed) = %.4f  (dependence made \
         visible)\n"
        p_supported p_l2_fail p_l2_fail_given_l1
    ^
    (* Littlewood-Wright (reference [12]) model: how much the second leg is
       worth depends on its diagnostic power. *)
    let lw =
      Casekit.Two_leg.make ~p_fault_free:0.7 ~verification:(0.95, 0.3)
        ~testing:(0.99, 0.1)
    in
    let sweep =
      Casekit.Two_leg.diversity_sweep ~p_fault_free:0.7
        ~verification:(0.95, 0.3)
        ~testing_powers:[| 0.5; 0.3; 0.1; 0.03; 0.01 |]
    in
    let rows =
      Array.to_list sweep
      |> List.map (fun (power, posterior) ->
             [ Report.Table.float_cell power;
               Report.Table.float_cell posterior ])
    in
    Printf.sprintf
      "\nLittlewood-Wright model (reference [12]): prior P(fault-free) = \
       0.7,\nverification passes 95%%/30%% (fault-free/faulty).\n  P(ok | \
       verification passed)        = %.4f\n  P(ok | both legs passed)      \
       \   = %.4f  (gain %.4f)\n\nValue of the second leg vs its diagnostic \
       power (pass rate when faulty):\n\n%s"
      (Casekit.Two_leg.p_fault_free lw ~verification_passed:(Some true)
         ~testing_passed:None)
      (Casekit.Two_leg.p_fault_free lw ~verification_passed:(Some true)
         ~testing_passed:(Some true))
      (Casekit.Two_leg.second_leg_gain lw)
      (Report.Table.render
         ~columns:
           [ { Report.Table.header = "pass-given-faulty"; align = Report.Table.Right };
             { Report.Table.header = "P(ok | both pass)"; align = Report.Table.Right } ]
         ~rows))

let conservative_mtbf () =
  let params = Experience.Growth.Jm.make ~n_faults:20 ~phi:0.01 in
  let times = Numerics.Interp.logspace 1.0 1e4 13 in
  let rows = Experience.Conservative_mtbf.bound_vs_model params ~times in
  let table_rows =
    Array.to_list rows
    |> List.map (fun (t, bound, model) ->
           [ Report.Table.float_cell t;
             Printf.sprintf "%.3e" bound;
             Printf.sprintf "%.3e" model;
             Printf.sprintf "%.3e"
               (Experience.Conservative_mtbf.worst_case_mtbf ~n_faults:20
                  ~time:t) ])
  in
  section
    "Reference [13]: conservative reliability-growth bound (rate <= N/(e t))"
    ("Jelinski-Moranda system: 20 faults, each at rate 0.01.\n\n"
    ^ Report.Table.render
        ~columns:
          [ { Report.Table.header = "operating time t"; align = Report.Table.Right };
            { Report.Table.header = "worst-case rate"; align = Report.Table.Right };
            { Report.Table.header = "JM expected rate"; align = Report.Table.Right };
            { Report.Table.header = "MTBF bound e*t/N"; align = Report.Table.Right } ]
        ~rows:table_rows
    ^ "\nThe bound envelopes the model for every t and is tight at t = \
       1/phi = 100.\n")

let acarp_planning () =
  let prior =
    Dist.Mixture.of_dist
      (Dist.Lognormal.of_mode_mean ~mode:Paper.mode ~mean:1e-2)
  in
  let activities =
    [ { Confidence.Acarp.label = "independent design review";
        cost = 20.0; effect = Confidence.Acarp.Spread_scale 0.85 };
      { Confidence.Acarp.label = "1000 statistical tests";
        cost = 60.0; effect = Confidence.Acarp.Failure_free_demands 1000 };
      { Confidence.Acarp.label = "300 more operational demands";
        cost = 25.0; effect = Confidence.Acarp.Failure_free_demands 300 };
      { Confidence.Acarp.label = "formal verification of the core";
        cost = 120.0; effect = Confidence.Acarp.Perfection_evidence 0.15 } ]
  in
  let plan =
    Confidence.Acarp.greedy_plan prior ~target_bound:Paper.sil2_bound
      ~required_confidence:0.95 activities
  in
  let rows =
    List.map
      (fun (s : Confidence.Acarp.step) ->
        [ s.after;
          Report.Table.float_cell s.cumulative_cost;
          Report.Table.float_cell s.confidence;
          Report.Table.float_cell s.mean_pfd ])
      plan
  in
  section "ACARP: planning confidence-building activities (Sections 1, 4.1)"
    ("Requirement: 95% confidence in SIL2.  Greedy plan (best confidence \
      per cost):\n\n"
    ^ Report.Table.render
        ~columns:
          [ { Report.Table.header = "activity"; align = Report.Table.Left };
            { Report.Table.header = "cum. cost"; align = Report.Table.Right };
            { Report.Table.header = "P(SIL2+)"; align = Report.Table.Right };
            { Report.Table.header = "mean pfd"; align = Report.Table.Right } ]
        ~rows)

let decision_impact () =
  let policies =
    [ Regime.Policy.Mode_based; Regime.Policy.Mean_based;
      Regime.Policy.Confidence_based 0.7; Regime.Policy.Confidence_based 0.9;
      Regime.Policy.Conservative_based;
      Regime.Policy.Test_first { demands = 500; confidence = 0.9 };
      Regime.Policy.Test_tolerant
        { demands = 500; max_failures = 3; confidence = 0.9 } ]
  in
  (* Parallel fan-out with a pinned chunk count: each policy sees the same
     per-chunk world streams, and the outcome is machine-independent. *)
  let table assessor =
    with_default_pool (fun pool ->
        Regime.Evaluate.summary_table
          (Regime.Evaluate.compare_par ~pool ~chunks:mc_chunks
             ~world:Regime.Population.sil2_world ~assessor
             ~band:Sil.Band.Sil2 ~policies ~systems:1000 ~seed:Paper.seed ()))
  in
  section
    "Section 1: what assessment uncertainty does to decision-making"
    ("World: ordinary systems near pfd 0.003 (mid-SIL2), 10% rogues 30x \
      worse.\nEach of 1000 systems is assessed and an acceptance decision \
      made for SIL2.\n\nCalibrated assessor (honest about a wide spread):\n\n"
    ^ table Regime.Assessor.calibrated
    ^ "\nOverconfident assessor (claims half the spread):\n\n"
    ^ table Regime.Assessor.overconfident
    ^ "\nReading: the mode-based regime (point judgement, no uncertainty) \
       fields the\nmost truly-bad systems; explicit confidence requirements \
       cut that at the price\nof rejecting good systems; the conservative \
       route accepts almost nothing (the\npaper: \"how unforgiving this \
       kind of reasoning can be\"); buying confidence\nwith testing \
       restores acceptance without fielding bad systems.  Overconfident\n\
       assessment erodes every regime except those that test or bound \
       conservatively.\n")

let pbox_view () =
  let rows =
    List.map
      (fun (bound, confidence) ->
        let box = Dist.Pbox.of_claim ~bound ~confidence in
        let claim = Confidence.Claim.make ~bound ~confidence in
        [ Printf.sprintf "P(pfd<%.0e) >= %.4f" bound confidence;
          Printf.sprintf "%.6g" (Dist.Pbox.upper_mean box);
          Printf.sprintf "%.6g" (Confidence.Conservative.failure_bound claim) ])
      [ (1e-3, 0.99); (1e-4, 0.9991); (1e-2, 0.67) ]
  in
  let leg1 = Dist.Pbox.of_claim ~bound:1e-3 ~confidence:0.98 in
  let leg2 = Dist.Pbox.of_claim ~bound:1e-2 ~confidence:0.999 in
  let fused = Dist.Pbox.intersect leg1 leg2 in
  section
    "Section 3.4 as imprecise probability: the bound is a p-box upper mean"
    ("The set of distributions consistent with a partial belief P(pfd <= y) \
      >= 1-x is a\np-box; its upper expectation reproduces inequality (5) \
      exactly:\n\n"
    ^ Report.Table.render
        ~columns:
          [ { Report.Table.header = "partial belief"; align = Report.Table.Left };
            { Report.Table.header = "p-box upper mean"; align = Report.Table.Right };
            { Report.Table.header = "x + y - xy"; align = Report.Table.Right } ]
        ~rows
    ^ Printf.sprintf
        "\nFusing two partial beliefs (two argument legs) tightens the \
         worst case without\nany distributional assumption:\n  leg 1 alone: \
         %.6g\n  leg 2 alone: %.6g\n  both:        %.6g\n"
        (Dist.Pbox.upper_mean leg1) (Dist.Pbox.upper_mean leg2)
        (Dist.Pbox.upper_mean fused))

let variance_reduction () =
  (* Head-to-head on the problem the paper actually poses: the tail mass
     P(pfd > y) of an ultra-reliable belief (lognormal, mode 3e-9, sigma 1
     — the kind of claim Section 3 treats).  Plain MC, QMC via the
     quantile transform, and importance sampling all get the same sample
     budget n = 2^16; the second table converts each measured standard
     error into the samples that method would need for a 10% relative
     error. *)
  let mu = log 3e-9 +. 1.0 and sigma = 1.0 in
  let belief = Dist.Lognormal.make ~mu ~sigma in
  let mix = Dist.Mixture.of_dist belief in
  let n = 65536 in
  let qmc_reps = 16 in
  let row i y =
    (* Via erfc directly: [Dist.survival] computes 1 - cdf, which
       underflows to 0 around z = 11 sigma — exactly the regime this
       experiment probes. *)
    let truth =
      let z = (log y -. mu) /. sigma in
      0.5 *. Numerics.Special.erfc (z /. sqrt 2.0)
    in
    let plain =
      with_default_pool (fun pool ->
          Sim.Mc.probability_par ~pool ~chunks:mc_chunks ~n
            ~seed:(Paper.seed + 61 + i)
            (fun rng -> belief.Dist.sample rng > y))
    in
    let qmc =
      with_default_pool (fun pool ->
          Sim.Mc.estimate_qmc ~pool ~replicates:qmc_reps ~dim:1
            ~n:(n / qmc_reps) ~seed:(Paper.seed + 71 + i)
            (fun p ->
              let u = Stdlib.Float.Array.get p 0 (* lint: allow-floatarray *) in
              let u = Float.min (1.0 -. 1e-12) (Float.max 1e-12 u) in
              if belief.Dist.quantile u > y then 1.0 else 0.0))
    in
    let is_ =
      with_default_pool (fun pool ->
          Sim.Demand_sim.pfd_tail_is ~pool ~chunks:mc_chunks ~n
            ~seed:(Paper.seed + 81 + i) ~y mix)
    in
    (y, truth, plain, qmc, is_)
  in
  let data = List.mapi row [ 1e-3; 1e-5; 1e-7 ] in
  let est_cell (e : Sim.Mc.estimate) =
    if e.Sim.Mc.mean = 0.0 then "0 (no hits)"
    else Printf.sprintf "%.3e +/- %.1e" e.Sim.Mc.mean e.Sim.Mc.std_error
  in
  let estimates =
    Report.Table.render
      ~columns:
        [ { Report.Table.header = "y"; align = Report.Table.Right };
          { Report.Table.header = "analytic"; align = Report.Table.Right };
          { Report.Table.header = "plain MC"; align = Report.Table.Right };
          { Report.Table.header = "QMC"; align = Report.Table.Right };
          { Report.Table.header = "IS"; align = Report.Table.Right };
          { Report.Table.header = "IS ESS"; align = Report.Table.Right } ]
      ~rows:
        (List.map
           (fun (y, truth, plain, qmc, (is_ : Sim.Mc.is_estimate)) ->
             [ Printf.sprintf "%.0e" y;
               Printf.sprintf "%.3e" truth;
               est_cell plain;
               est_cell qmc;
               est_cell is_.Sim.Mc.plain;
               Printf.sprintf "%.0f" is_.Sim.Mc.ess ])
           data)
  in
  (* Samples to reach a 10% relative standard error.  Plain MC admits the
     closed form (1-p)/(0.01 p); QMC and IS are scaled from the measured
     standard error at this n (se falls like 1/sqrt n for both — the
     randomised-QMC replicates are i.i.d.). *)
  let needed_cell (e : Sim.Mc.estimate) =
    if e.Sim.Mc.mean <= 0.0 then "never (no hits)"
    else if e.Sim.Mc.std_error = 0.0 then "~0 (stratification exact)"
    else
      let r = e.Sim.Mc.std_error /. (0.1 *. e.Sim.Mc.mean) in
      Printf.sprintf "%.2e" (float_of_int e.Sim.Mc.n *. r *. r)
  in
  let samples =
    Report.Table.render
      ~columns:
        [ { Report.Table.header = "y"; align = Report.Table.Right };
          { Report.Table.header = "plain MC (analytic)";
            align = Report.Table.Right };
          { Report.Table.header = "QMC (measured)";
            align = Report.Table.Right };
          { Report.Table.header = "IS (measured)"; align = Report.Table.Right } ]
      ~rows:
        (List.map
           (fun (y, truth, _, qmc, (is_ : Sim.Mc.is_estimate)) ->
             [ Printf.sprintf "%.0e" y;
               Printf.sprintf "%.2e" ((1.0 -. truth) /. (0.01 *. truth));
               needed_cell qmc;
               needed_cell is_.Sim.Mc.plain ])
           data)
  in
  section
    "Variance reduction: samples to resolve P(pfd > y) for an \
     ultra-reliable belief"
    (Printf.sprintf
       "Belief: lognormal with mode 3e-9, sigma 1.  Every method gets n = \
        2^16 = %d\ndraws (QMC: %d scrambled Sobol replicates x %d \
        points).\n\nEstimates of P(pfd > y):\n\n" n qmc_reps (n / qmc_reps)
    ^ estimates
    ^ "\nSamples to reach 10% relative standard error:\n\n"
    ^ samples
    ^ "\nReading: at y = 1e-7 the event is common enough (~6e-3) that any \
       method works\nand importance sampling merely saves a constant \
       factor.  Two decades deeper,\nplain MC and QMC stop seeing the \
       event at all — the analytic column says they\nwould need ~1e14 and \
       ~1e33 draws — while the tilted-proposal importance\nsampler \
       resolves both tails with the same 2^16 budget and reports the \
       effective\nsample size it did it with.  (The single-digit Kish ESS \
       on the deep rows is a\nproperty of the self-normalised weights; the \
       plain estimator quoted here has\nits variance controlled by the \
       bounded weight ratio, as the +/- column shows.)\n")

let all =
  [ ("table1", "Table 1", table1);
    ("figure1", "Figure 1", figure1);
    ("figure2", "Figure 2", figure2);
    ("figure3", "Figure 3", figure3);
    ("figure4", "Figure 4", figure4);
    ("figure5", "Figure 5 / Section 3.3", figure5);
    ("conservative", "Section 3.4 examples", conservative_examples);
    ("perfection", "Section 3.4 variants", perfection_bound);
    ("pbox", "Section 3.4 as a p-box", pbox_view);
    ("standards", "Section 4.3", standards);
    ("gamma", "Section 3 sensitivity", gamma_sensitivity);
    ("tailcut", "Section 4.1", tail_cutoff);
    ("multileg", "Section 4.2", multileg);
    ("mtbf", "Reference [13] bound", conservative_mtbf);
    ("acarp", "ACARP planning", acarp_planning);
    ("decisions", "Section 1 decision impact", decision_impact);
    ("vr", "Variance reduction", variance_reduction) ]

let run_one ?pool id =
  let _, _, f = List.find (fun (i, _, _) -> i = id) all in
  match pool with
  | None -> f ()
  | Some _ ->
    let saved = !pool_override in
    pool_override := pool;
    Fun.protect ~finally:(fun () -> pool_override := saved) f

let csv_exports () =
  let figure4_series =
    let bounds = Numerics.Interp.logspace 1e-5 1e-1 17 in
    List.map
      (fun (label, (d : Dist.t)) ->
        Report.Series.make label
          (Array.to_list (Array.map (fun b -> (b, d.cdf b)) bounds)))
      (Paper.figure1_beliefs ())
  in
  let tailcut_series =
    let prior =
      Dist.Mixture.of_dist
        (Dist.Lognormal.of_mode_mean ~mode:Paper.mode ~mean:1e-2)
    in
    let ns = [ 0; 10; 30; 100; 300; 1000; 3000; 10000 ] in
    let traj =
      Experience.Tail_cutoff.trajectory prior ~bound:Paper.sil2_bound ~ns
    in
    [ Report.Series.make "mean_pfd"
        (List.map
           (fun (p : Experience.Tail_cutoff.point) ->
             (float_of_int p.demands, p.mean))
           traj);
      Report.Series.make "confidence_sil2"
        (List.map
           (fun (p : Experience.Tail_cutoff.point) ->
             (float_of_int p.demands, p.confidence))
           traj) ]
  in
  let multileg_series =
    let leg = Casekit.Multileg.leg ~label:"leg" ~doubt:0.05 in
    [ Report.Series.make "combined_doubt"
        (Array.to_list (Casekit.Multileg.dependence_sweep leg leg ~n:11)) ]
  in
  let mtbf_series =
    let params = Experience.Growth.Jm.make ~n_faults:20 ~phi:0.01 in
    let times = Numerics.Interp.logspace 1.0 1e4 13 in
    let rows = Experience.Conservative_mtbf.bound_vs_model params ~times in
    [ Report.Series.make "worst_case_rate"
        (Array.to_list (Array.map (fun (t, b, _) -> (t, b)) rows));
      Report.Series.make "jm_expected_rate"
        (Array.to_list (Array.map (fun (t, _, m) -> (t, m)) rows)) ]
  in
  let figure5_csv =
    let result = Elicit.Delphi.run Elicit.Delphi.default_config in
    let rows =
      List.map
        (fun (s : Elicit.Delphi.snapshot) ->
          [ Elicit.Delphi.phase_to_string s.phase;
            Printf.sprintf "%.17g" s.pooled_mean;
            Printf.sprintf "%.17g" s.confidence_sil2;
            Printf.sprintf "%.17g" s.confidence_sil1 ])
        result.snapshots
    in
    Report.Table.to_csv
      ~header:[ "phase"; "pooled_mean_pfd"; "p_sil2_or_better"; "p_sil1_or_better" ]
      ~rows
  in
  [ ("figure1.csv", Report.Series.to_csv (density_series ~log_grid:true));
    ("figure2.csv", Report.Series.to_csv (density_series ~log_grid:false));
    ("figure3.csv",
     Report.Series.to_csv [ figure3_series Sil.Judgement.Lognormal ]);
    ("figure3_gamma.csv",
     Report.Series.to_csv [ figure3_series Sil.Judgement.Gamma ]);
    ("figure4.csv", Report.Series.to_csv figure4_series);
    ("figure5.csv", figure5_csv);
    ("tailcut.csv", Report.Series.to_csv tailcut_series);
    ("multileg.csv", Report.Series.to_csv multileg_series);
    ("mtbf.csv", Report.Series.to_csv mtbf_series) ]
