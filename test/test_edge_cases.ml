open Helpers

(* Cross-module edge cases and failure injection that don't fit the
   per-module suites. *)

let test_ascii_plot_degenerate () =
  (* Constant series: y span is zero, must not divide by zero. *)
  let flat = Report.Series.make "flat" [ (1.0, 5.0); (2.0, 5.0); (3.0, 5.0) ] in
  let out = Report.Ascii_plot.plot [ flat ] in
  check_true "renders" (String.length out > 0);
  (* Log scale silently drops non-positive points. *)
  let mixed = Report.Series.make "mixed" [ (1.0, -2.0); (2.0, 10.0); (3.0, 100.0) ] in
  let out2 =
    Report.Ascii_plot.plot ~y_scale:Report.Ascii_plot.Log10 [ mixed ]
  in
  check_true "renders with filtered points" (String.length out2 > 0);
  (* All points filtered -> error. *)
  let negative = Report.Series.make "neg" [ (1.0, -1.0) ] in
  check_raises_invalid "nothing plottable" (fun () ->
      ignore
        (Report.Ascii_plot.plot ~y_scale:Report.Ascii_plot.Log10 [ negative ]))

let test_newton_bracket_swap () =
  (* Bracket given with f(lo) > 0 > f(hi): the solver must still work. *)
  let f x = 2.0 -. x in
  let df _ = -1.0 in
  check_close ~eps:1e-10 "decreasing function" 2.0
    (Numerics.Rootfind.newton_bracketed ~f ~df 0.0 5.0 1.0)

let test_adaptive_budget_exhaustion () =
  (* A nowhere-smooth integrand with a tiny budget must raise, not loop. *)
  let rng = rng_of_seed 141 in
  let noisy _ = Numerics.Rng.float rng in
  match Numerics.Integrate.adaptive ~tol:1e-14 ~max_intervals:8 noisy 0.0 1.0 with
  | exception Numerics.Integrate.No_convergence _ -> ()
  | v -> check_in_range "or converged plausibly" ~lo:0.0 ~hi:1.0 v

let test_simpson_depth_exhaustion () =
  let f x = if x < 0.31415926 then 0.0 else 1.0 in
  match Numerics.Integrate.simpson ~tol:1e-15 ~max_depth:5 f 0.0 1.0 with
  | exception Numerics.Integrate.No_convergence _ -> ()
  | _ -> Alcotest.fail "expected No_convergence for a step at tiny tolerance"

let test_band_pp () =
  let buf = Buffer.create 16 in
  let fmt = Format.formatter_of_buffer buf in
  Sil.Band.pp fmt Sil.Band.Sil3;
  Format.pp_print_flush fmt ();
  Alcotest.(check string) "pp" "SIL3" (Buffer.contents buf)

let test_membership_beyond_sil4 () =
  (* An extremely good system: most mass beyond SIL4. *)
  let d = Dist.Lognormal.of_mode_sigma ~mode:1e-7 ~sigma:0.3 in
  let profile =
    Sil.Judgement.membership_profile (Dist.Mixture.of_dist d)
      ~mode:Sil.Band.Low_demand
  in
  let beyond = List.assoc Sil.Band.Beyond_sil4 profile in
  check_in_range "mass beyond SIL4" ~lo:0.9 ~hi:1.0 beyond

let test_claim_strength_partial_order () =
  let a = Confidence.Claim.make ~bound:1e-4 ~confidence:0.9 in
  let b = Confidence.Claim.make ~bound:1e-3 ~confidence:0.99 in
  (* Incomparable claims: neither dominates. *)
  check_true "a does not dominate b"
    (not (Confidence.Claim.is_at_least_as_strong a b));
  check_true "b does not dominate a"
    (not (Confidence.Claim.is_at_least_as_strong b a))

let test_case_format_deep_nesting () =
  let text =
    "goal G0 \"root\" all\n  goal G1 \"l1\" all\n    goal G2 \"l2\" any\n\
     \      goal G3 \"l3\" all\n        evidence E \"leaf\" 0.9\n"
  in
  let case = Casekit.Case_format.parse text in
  Alcotest.(check int) "depth 5" 5 (Casekit.Node.depth case);
  let reparsed = Casekit.Case_format.parse (Casekit.Case_format.print case) in
  check_true "deep roundtrip" (case = reparsed)

let test_acarp_spread_scale_with_atoms () =
  (* Spread scaling must preserve atoms untouched. *)
  let belief =
    Dist.Mixture.with_perfection ~p0:0.2
      (Dist.Mixture.of_dist (Dist.Lognormal.of_mode_sigma ~mode:3e-3 ~sigma:0.9))
  in
  let scaled =
    Confidence.Acarp.apply_effect belief (Confidence.Acarp.Spread_scale 0.5)
  in
  check_close "atom preserved" 0.2 (Dist.Mixture.atom_weight scaled 0.0)

let test_table_one_column () =
  let out =
    Report.Table.render
      ~columns:[ { Report.Table.header = "only"; align = Report.Table.Left } ]
      ~rows:[ [ "a" ]; [ "bb" ] ]
  in
  check_true "renders single column" (String.length out > 0)

let test_uniform_quantile_edges () =
  let d = Dist.Uniform_d.make ~lo:0.0 ~hi:1.0 in
  check_raises_invalid "p=0" (fun () -> ignore (d.Dist.quantile 0.0));
  check_raises_invalid "p=1" (fun () -> ignore (d.Dist.quantile 1.0))

let test_conservative_zero_bound_claims () =
  (* A pure perfection claim: bound 0 at high confidence. *)
  let c = Confidence.Claim.make ~bound:0.0 ~confidence:0.9999 in
  check_close ~eps:1e-15 "bound = doubt" 1e-4
    (Confidence.Conservative.failure_bound c)

let test_pool_single_expert_identity () =
  let d = Dist.Lognormal.of_mode_sigma ~mode:3e-3 ~sigma:0.8 in
  let pooled = Elicit.Pool.logarithmic [ (1.0, d) ] in
  check_close ~eps:5e-3 "log pool of one expert (median ratio)" 1.0
    (pooled.Dist.quantile 0.5 /. d.Dist.quantile 0.5)

let test_delphi_single_believer () =
  (* Minimum viable panel: one believer, one doubter. *)
  let config =
    { Elicit.Delphi.default_config with n_experts = 2; n_doubters = 1 }
  in
  let result = Elicit.Delphi.run config in
  let final = Elicit.Delphi.final result in
  Alcotest.(check int) "one doubter" 1 (List.length final.doubter_modes);
  check_in_range "confidence defined" ~lo:0.0 ~hi:1.0 final.confidence_sil2

let read_file path =
  (* dune runtest runs in _build/default/test; a direct exec may run from
     the repo root — accept either. *)
  let path =
    if Sys.file_exists path then path
    else Filename.concat ".." path |> fun up ->
      if Sys.file_exists up then up else path
  in
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_shipped_files_parse () =
  (* The example files in the repository must keep parsing. *)
  let case = Casekit.Case_format.parse (read_file "examples/shutdown.case") in
  Alcotest.(check string) "case root" "G0" (Casekit.Node.id case);
  check_in_range "case confidence plausible" ~lo:0.9 ~hi:1.0
    (Case_oracle.confidence Casekit.Graph.Independent case);
  let belief = Elicit.Belief_format.parse (read_file "examples/sis.belief") in
  check_close "belief perfection atom" 0.05
    (Dist.Mixture.atom_weight belief 0.0);
  check_in_range "belief mean" ~lo:5e-3 ~hi:2e-2 (Dist.Mixture.mean belief)

let suite =
  [ case "ascii plot degenerate inputs" test_ascii_plot_degenerate;
    case "shipped example files parse" test_shipped_files_parse;
    case "newton with reversed bracket" test_newton_bracket_swap;
    case "adaptive quadrature budget" test_adaptive_budget_exhaustion;
    case "simpson depth budget" test_simpson_depth_exhaustion;
    case "band pretty-printer" test_band_pp;
    case "membership beyond SIL4" test_membership_beyond_sil4;
    case "claim strength is a partial order" test_claim_strength_partial_order;
    case "deep case nesting" test_case_format_deep_nesting;
    case "spread scale preserves atoms" test_acarp_spread_scale_with_atoms;
    case "single-column tables" test_table_one_column;
    case "quantile domain edges" test_uniform_quantile_edges;
    case "zero-bound (perfection) claims" test_conservative_zero_bound_claims;
    case "pool of one expert" test_pool_single_expert_identity;
    case "minimal Delphi panel" test_delphi_single_believer ]
