let section title body =
  let rule = String.make (String.length title) '=' in
  Printf.sprintf "%s\n%s\n%s\n" title rule body

let reweighting_grid () =
  let a = 1.5 and b = 80.0 and n = 400 in
  let prior = Dist.Mixture.of_dist (Dist.Beta_d.make ~a ~b) in
  let exact = Experience.Bayes.beta_posterior ~a ~b ~failures:0 ~demands:n in
  let weight p =
    if p >= 1.0 then 0.0
    else exp (float_of_int n *. Numerics.Special.log1p (-.p))
  in
  let rows =
    List.map
      (fun grid_size ->
        let posterior, _ =
          Dist.Reweighted.posterior ~grid_size prior ~weight
        in
        let mean_err =
          abs_float (Dist.Mixture.mean posterior -. exact.Dist.mean)
          /. exact.Dist.mean
        in
        let cdf_err =
          List.fold_left
            (fun acc x ->
              max acc
                (abs_float (Dist.Mixture.prob_le posterior x -. exact.Dist.cdf x)))
            0.0 [ 0.005; 0.01; 0.02; 0.05 ]
        in
        [ string_of_int grid_size;
          Printf.sprintf "%.2e" mean_err;
          Printf.sprintf "%.2e" cdf_err ])
      [ 33; 65; 129; 257; 513; 1025; 2049; 4097 ]
  in
  section "Ablation: reweighting grid size (vs exact beta conjugate)"
    (Report.Table.render
       ~columns:
         [ { Report.Table.header = "grid points"; align = Report.Table.Right };
           { Report.Table.header = "relative mean error"; align = Report.Table.Right };
           { Report.Table.header = "max CDF error"; align = Report.Table.Right } ]
       ~rows
    ^ "\nThe default (1025) keeps both errors below 1e-4 at ~1ms per update.\n")

let monte_carlo_budget () =
  let belief =
    Dist.Mixture.with_perfection ~p0:0.2
      (Dist.Mixture.of_dist (Dist.Beta_d.make ~a:2.0 ~b:30.0))
  in
  let exact = Dist.Mixture.mean belief in
  let rows =
    List.map
      (fun n ->
        (* Coverage over 40 independent estimates. *)
        let covered = ref 0 in
        let width = ref 0.0 in
        for seed = 1 to 40 do
          let rng = Numerics.Rng.create (seed * 7919) in
          let est = Sim.Demand_sim.failure_probability ~n rng belief in
          if Sim.Mc.within est exact then incr covered;
          width := !width +. (est.ci95_hi -. est.ci95_lo)
        done;
        [ string_of_int n;
          Printf.sprintf "%.2e" (!width /. 40.0);
          Printf.sprintf "%d/40" !covered ])
      [ 1_000; 10_000; 100_000 ]
  in
  section "Ablation: Monte-Carlo budget for verifying equation (4)"
    (Report.Table.render
       ~columns:
         [ { Report.Table.header = "samples"; align = Report.Table.Right };
           { Report.Table.header = "mean CI width"; align = Report.Table.Right };
           { Report.Table.header = "CI covers E[p]"; align = Report.Table.Right } ]
       ~rows)

let pooling_rules () =
  let result = Elicit.Delphi.run Elicit.Delphi.default_config in
  let final = Elicit.Delphi.final result in
  let beliefs =
    List.filter
      (fun (e : Elicit.Delphi.expert) -> e.profile = Elicit.Delphi.Believer)
      final.experts
    |> List.map Elicit.Delphi.belief_of
  in
  let mixtures = List.map Dist.Mixture.of_dist beliefs in
  let linear = Elicit.Pool.linear (Elicit.Pool.equal_weights mixtures) in
  let log_pool = Elicit.Pool.logarithmic (Elicit.Pool.equal_weights beliefs) in
  let vincent =
    Elicit.Pool.quantile_average (Elicit.Pool.equal_weights beliefs)
  in
  let rows =
    [ [ "linear";
        Report.Table.float_cell (Dist.Mixture.prob_le linear 1e-2);
        Report.Table.float_cell (Dist.Mixture.mean linear) ];
      [ "logarithmic";
        Report.Table.float_cell (log_pool.Dist.cdf 1e-2);
        Report.Table.float_cell log_pool.Dist.mean ];
      [ "quantile average";
        Report.Table.float_cell (vincent.Dist.cdf 1e-2);
        Report.Table.float_cell vincent.Dist.mean ] ]
  in
  section "Ablation: opinion-pool choice on the final Delphi panel"
    (Report.Table.render
       ~columns:
         [ { Report.Table.header = "pool"; align = Report.Table.Left };
           { Report.Table.header = "P(SIL2+)"; align = Report.Table.Right };
           { Report.Table.header = "mean pfd"; align = Report.Table.Right } ]
       ~rows
    ^ "\nThe linear pool keeps every panellist's tail (conservative); the \
       log pool\nrewards consensus and would overstate the group's \
       confidence.\n")

let dependence_models () =
  let case =
    Casekit.Node.goal ~id:"G" ~statement:"claim" ~combinator:Casekit.Node.Any
      [ Casekit.Node.goal ~id:"L1" ~statement:"testing leg"
          [ Casekit.Node.evidence ~id:"E1" ~statement:"tests" ~confidence:0.96;
            Casekit.Node.evidence ~id:"E2" ~statement:"oracle" ~confidence:0.97 ];
        Casekit.Node.goal ~id:"L2" ~statement:"analysis leg"
          [ Casekit.Node.evidence ~id:"E3" ~statement:"proof" ~confidence:0.95;
            Casekit.Node.evidence ~id:"E4" ~statement:"timing" ~confidence:0.98 ] ]
  in
  let g = Casekit.Graph.of_node case in
  let rows =
    List.map
      (fun (label, dep) ->
        [ label; Printf.sprintf "%.5f" (Casekit.Graph.propagate dep g) ])
      [ ("independent", Casekit.Graph.Independent);
        ("correlated 0.25", Casekit.Graph.Correlated 0.25);
        ("correlated 0.75", Casekit.Graph.Correlated 0.75);
        ("Frechet lower", Casekit.Graph.Frechet_lower);
        ("Frechet upper", Casekit.Graph.Frechet_upper) ]
  in
  section "Ablation: dependence model for case propagation"
    (Report.Table.render
       ~columns:
         [ { Report.Table.header = "model"; align = Report.Table.Left };
           { Report.Table.header = "root confidence"; align = Report.Table.Right } ]
       ~rows
    ^ "\nReporting the Frechet envelope alongside the point model keeps the \
       case honest\nabout unmodelled dependence.\n")

let conservatism_stages () =
  (* A series system of k identical subsystems.  True beliefs: each pfd ~
     lognormal.  Route A (staged conservatism): state a single-point claim
     per subsystem, worst-case each (inequality 5), add.  Route B (one
     stage): form the system belief (sum of pfds, approximated by
     Monte-Carlo), read one claim off it, worst-case once. *)
  let sub = Dist.Lognormal.of_mode_sigma ~mode:1e-4 ~sigma:0.7 in
  let per_claim_conf = 0.99 in
  let rng = Numerics.Rng.create Paper.seed in
  let route_a k =
    let bound = sub.Dist.quantile per_claim_conf in
    let claim = Confidence.Claim.make ~bound ~confidence:per_claim_conf in
    Confidence.Compose.series_failure_bound (List.init k (fun _ -> claim))
  in
  let route_b k =
    (* System pfd = sum of subsystem pfds (rare-event union approximation);
       sample its distribution, state one claim at the same confidence. *)
    let samples =
      Array.init 20_000 (fun _ ->
          let acc = ref 0.0 in
          for _ = 1 to k do
            acc := !acc +. sub.Dist.sample rng
          done;
          min 1.0 !acc)
    in
    (* Anonymous Monte-Carlo pool, quantile-only: the shared single-buffer
       layout keeps one copy alive instead of raw + sorted scratch. *)
    let emp = Dist.Empirical.of_column ~share:true (Numerics.Columns.of_array samples) in
    let bound = Dist.Empirical.quantile emp per_claim_conf in
    Confidence.Conservative.failure_bound
      (Confidence.Claim.make ~bound ~confidence:per_claim_conf)
  in
  let rows =
    List.map
      (fun k ->
        let a = route_a k and b = route_b k in
        [ string_of_int k;
          Printf.sprintf "%.3e" a;
          Printf.sprintf "%.3e" b;
          Printf.sprintf "%.2f" (a /. b) ])
      [ 1; 2; 4; 8 ]
  in
  section
    "Ablation: conservatism compounding across stages (paper conclusion)"
    ("Series system of k subsystems; per-subsystem 99% claims worst-cased \
      then added\n(route A) vs one system-level 99% claim worst-cased once \
      (route B):\n\n"
    ^ Report.Table.render
        ~columns:
          [ { Report.Table.header = "k"; align = Report.Table.Right };
            { Report.Table.header = "staged (A)"; align = Report.Table.Right };
            { Report.Table.header = "single-stage (B)"; align = Report.Table.Right };
            { Report.Table.header = "A/B overshoot"; align = Report.Table.Right } ]
        ~rows
    ^ "\n\"Conservative values at one stage of the analysis do not \
       necessarily propagate\nthrough to other stages\" — staging the \
       worst case multiplies the doubt term by k.\n")

let all =
  [ ("ablation-grid", "grid size", reweighting_grid);
    ("ablation-conservatism", "conservatism compounding", conservatism_stages);
    ("ablation-mc", "Monte-Carlo budget", monte_carlo_budget);
    ("ablation-pool", "pooling rules", pooling_rules);
    ("ablation-dependence", "dependence models", dependence_models) ]
