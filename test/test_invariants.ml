open Helpers

(* Cross-cutting algebraic invariants, property-tested. *)

let belief_gen =
  (* Random two-component pfd beliefs: perfection atom + lognormal. *)
  QCheck2.Gen.(
    triple
      (map (fun u -> 0.3 *. u) (float_bound_inclusive 1.0))
      (map (fun u -> exp (log 1e-5 +. (u *. log 1e3))) (float_bound_inclusive 1.0))
      (map (fun u -> 0.2 +. (1.3 *. u)) (float_bound_inclusive 1.0)))

let belief_of (p0, mode, sigma) =
  let d = Dist.Lognormal.of_mode_sigma ~mode ~sigma in
  Dist.Mixture.with_perfection ~p0 (Dist.Mixture.of_dist d)

let test_expect_linearity =
  qcheck ~count:50 "E[a f + b g] = a E[f] + b E[g]" belief_gen (fun params ->
      let m = belief_of params in
      let f x = x and g x = x *. x in
      let lhs = Dist.Mixture.expect m (fun x -> (2.0 *. f x) +. (3.0 *. g x)) in
      let rhs =
        (2.0 *. Dist.Mixture.expect m f) +. (3.0 *. Dist.Mixture.expect m g)
      in
      abs_float (lhs -. rhs) < 1e-7 *. (1.0 +. abs_float rhs))

let test_mean_via_expect =
  qcheck ~count:50 "mean = E[id] for structured beliefs" belief_gen
    (fun params ->
      let m = belief_of params in
      abs_float (Dist.Mixture.mean m -. Dist.Mixture.expect m (fun x -> x))
      < 1e-6 *. (1.0 +. Dist.Mixture.mean m))

let test_conservative_monotonicity =
  let gen =
    QCheck2.Gen.(
      triple (float_bound_inclusive 0.5) (float_bound_inclusive 0.5)
        (map (fun u -> 0.01 +. (0.4 *. u)) (float_bound_inclusive 1.0)))
  in
  qcheck "failure bound monotone in bound and doubt" gen (fun (y1, dy, x) ->
      let y2 = min 1.0 (y1 +. dy) in
      let c conf bound = Confidence.Claim.make ~bound ~confidence:conf in
      let b = Confidence.Conservative.failure_bound in
      (* Larger bound, same confidence: never better. *)
      b (c (1.0 -. x) y1) <= b (c (1.0 -. x) y2) +. 1e-12
      (* Same bound, more doubt: never better. *)
      && b (c (1.0 -. (x /. 2.0)) y1) <= b (c (1.0 -. x) y1) +. 1e-12)

let test_pbox_intersection_tightens =
  let gen =
    QCheck2.Gen.(
      pair
        (pair (float_bound_inclusive 0.5)
           (map (fun u -> 0.1 +. (0.85 *. u)) (float_bound_inclusive 1.0)))
        (pair (float_bound_inclusive 0.5)
           (map (fun u -> 0.1 +. (0.85 *. u)) (float_bound_inclusive 1.0))))
  in
  qcheck ~count:100 "p-box fusion never loosens the upper mean" gen
    (fun ((y1, c1), (y2, c2)) ->
      let a = Dist.Pbox.of_claim ~bound:y1 ~confidence:c1 in
      let b = Dist.Pbox.of_claim ~bound:y2 ~confidence:c2 in
      match Dist.Pbox.intersect a b with
      | both ->
        Dist.Pbox.upper_mean both
        <= min (Dist.Pbox.upper_mean a) (Dist.Pbox.upper_mean b) +. 1e-12
      | exception Invalid_argument _ ->
        (* One-sided constraints never conflict. *)
        false)

let test_tail_cutoff_monotone_in_n =
  qcheck ~count:25 "more failure-free evidence never hurts confidence"
    QCheck2.Gen.(pair (int_range 1 500) (int_range 1 500))
    (fun (n1, n2) ->
      let prior =
        Dist.Mixture.of_dist (Dist.Lognormal.of_mode_sigma ~mode:3e-3 ~sigma:0.9)
      in
      let lo = min n1 n2 and hi = max n1 n2 in
      let conf n =
        Dist.Mixture.prob_le (Experience.Tail_cutoff.after_demands prior ~n) 1e-2
      in
      conf hi >= conf lo -. 1e-6)

let test_series_claim_consistent_with_bound =
  (* The claim produced by Compose.series, pushed through the worst case,
     is never tighter than the per-subsystem union bound. *)
  let claim_gen =
    QCheck2.Gen.(
      pair
        (map (fun u -> u *. 0.05) (float_bound_inclusive 1.0))
        (map (fun u -> 0.9 +. (0.099 *. u)) (float_bound_inclusive 1.0)))
  in
  qcheck ~count:100 "series claim vs union bound"
    QCheck2.Gen.(list_size (int_range 2 4) claim_gen)
    (fun raw ->
      let claims =
        List.map
          (fun (bound, confidence) -> Confidence.Claim.make ~bound ~confidence)
          raw
      in
      let total_doubt =
        List.fold_left (fun acc c -> acc +. Confidence.Claim.doubt c) 0.0 claims
      in
      if total_doubt >= 1.0 then true
      else begin
        let series_claim = Confidence.Compose.series claims in
        let via_claim = Confidence.Conservative.failure_bound series_claim in
        let union = Confidence.Compose.series_failure_bound claims in
        (* Both are valid bounds.  Without clamping (sum of bounds < 1),
           worst-casing the composed claim once is tighter:
           X + Y - XY <= sum_i (x_i + y_i - x_i y_i) because
           sum x_i y_i <= (sum x_i)(sum y_i). *)
        via_claim <= union +. 1e-9
      end)

let test_propagation_what_if_roundtrip =
  qcheck ~count:50 "what_if to the same confidence is the identity"
    QCheck2.Gen.(map (fun u -> 0.1 +. (0.89 *. u)) (float_bound_inclusive 1.0))
    (fun c ->
      let tree =
        Casekit.Node.goal ~id:"G" ~statement:"g"
          [ Casekit.Node.evidence ~id:"E" ~statement:"e" ~confidence:c;
            Casekit.Node.evidence ~id:"F" ~statement:"f" ~confidence:0.5 ]
      in
      let same = Case_oracle.what_if tree ~id:"E" ~confidence:c in
      Case_oracle.confidence Casekit.Graph.Independent same
      = Case_oracle.confidence Casekit.Graph.Independent tree)

let suite =
  [ test_expect_linearity;
    test_mean_via_expect;
    test_conservative_monotonicity;
    test_pbox_intersection_tightens;
    test_tail_cutoff_monotone_in_n;
    test_series_claim_consistent_with_bound;
    test_propagation_what_if_roundtrip ]
