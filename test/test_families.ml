open Helpers

(* Generic conformance checks applied to every closed-form family. *)

let check_cdf_pdf_consistency name (d : Dist.t) xs =
  (* d/dx CDF = pdf, via central differences. *)
  Array.iter
    (fun x ->
      let h = 1e-4 *. max (abs_float x) 1e-6 in
      let numeric = (d.cdf (x +. h) -. d.cdf (x -. h)) /. (2.0 *. h) in
      let analytic = d.pdf x in
      let scale = max 1.0 analytic in
      if abs_float (numeric -. analytic) > 1e-4 *. scale then
        Alcotest.failf "%s: pdf/cdf mismatch at %g: %g vs %g" name x numeric
          analytic)
    xs

let check_quantile_roundtrip name (d : Dist.t) ps =
  Array.iter
    (fun p ->
      let x = d.quantile p in
      let back = d.cdf x in
      if abs_float (back -. p) > 1e-8 then
        Alcotest.failf "%s: cdf(quantile %g) = %g" name p back)
    ps

let check_log_pdf name (d : Dist.t) xs =
  Array.iter
    (fun x ->
      let p = d.pdf x in
      if p > 0.0 && Float.is_finite p then
        check_close ~eps:1e-9 (name ^ " log_pdf") (log p) (d.log_pdf x))
    xs

let check_sample_moments name (d : Dist.t) ~seed ~n =
  let rng = rng_of_seed seed in
  let acc = Numerics.Summary.Online.create () in
  for _ = 1 to n do
    Numerics.Summary.Online.add acc (d.sample rng)
  done;
  let tol = 8.0 *. Dist.std d /. sqrt (float_of_int n) in
  let m = Numerics.Summary.Online.mean acc in
  if abs_float (m -. d.mean) > tol then
    Alcotest.failf "%s: sample mean %g vs %g (tol %g)" name m d.mean tol

let ps = [| 0.001; 0.01; 0.1; 0.3; 0.5; 0.7; 0.9; 0.99; 0.999 |]

let conformance name d xs =
  check_cdf_pdf_consistency name d xs;
  check_quantile_roundtrip name d ps;
  check_log_pdf name d xs;
  check_sample_moments name d ~seed:101 ~n:30_000

let test_normal () =
  let d = Dist.Normal.make ~mu:2.0 ~sigma:3.0 in
  conformance "normal" d [| -5.0; 0.0; 2.0; 4.0; 9.0 |];
  check_close "mean" 2.0 d.mean;
  check_close "variance" 9.0 d.variance;
  check_close "mode" 2.0 (Option.get d.mode);
  check_close ~eps:1e-12 "median = mu" 2.0 (d.quantile 0.5);
  check_raises_invalid "sigma <= 0" (fun () ->
      ignore (Dist.Normal.make ~mu:0.0 ~sigma:0.0))

let test_lognormal_basic () =
  let mu = -5.0 and sigma = 0.9 in
  let d = Dist.Lognormal.make ~mu ~sigma in
  conformance "lognormal" d [| 1e-4; 1e-3; 5e-3; 1e-2; 5e-2 |];
  check_close ~eps:1e-12 "mean" (exp (mu +. (0.5 *. sigma *. sigma))) d.mean;
  check_close ~eps:1e-12 "mode" (exp (mu -. (sigma *. sigma)))
    (Option.get d.mode);
  check_close ~eps:1e-12 "median" (exp mu) (d.quantile 0.5);
  check_close "pdf at 0" 0.0 (d.pdf 0.0);
  check_close "cdf at 0" 0.0 (d.cdf 0.0)

let test_lognormal_paper_parameterisation () =
  (* The paper's (lmean, lmode) form: sigma^2 = 2(lmean-lmode)/3,
     mu = (2 lmean + lmode)/3; round-trips the mean and mode exactly. *)
  let mean = 1e-2 and mode = 3e-3 in
  let d = Dist.Lognormal.of_log_mean_mode ~lmean:(log mean) ~lmode:(log mode) in
  check_close ~eps:1e-12 "mean recovered" mean d.mean;
  check_close ~eps:1e-12 "mode recovered" mode (Option.get d.mode);
  let d2 = Dist.Lognormal.of_mode_mean ~mode ~mean in
  check_close ~eps:1e-12 "of_mode_mean agrees" (d.cdf 5e-3) (d2.cdf 5e-3);
  check_raises_invalid "lmean <= lmode" (fun () ->
      ignore (Dist.Lognormal.of_log_mean_mode ~lmean:0.0 ~lmode:0.0))

let test_lognormal_mean_mode_law =
  (* log10(mean/mode) = 0.651... sigma^2 — the paper's key relation. *)
  qcheck "mean/mode decade law"
    QCheck2.Gen.(map (fun u -> 0.2 +. (1.8 *. u)) (float_bound_inclusive 1.0))
    (fun sigma ->
      let d = Dist.Lognormal.of_mode_sigma ~mode:3e-3 ~sigma in
      let ratio = log10 (d.Dist.mean /. Option.get d.Dist.mode) in
      let predicted = Dist.Lognormal.mean_mode_ratio_log10 ~sigma in
      abs_float (ratio -. predicted) < 1e-9)

let test_lognormal_paper_decades () =
  (* "the mean failure rate is one decade greater than the mode if sigma =
     1.2, and two decades greater if sigma = 1.7" (paper Section 3.1). *)
  let sigma1 = Dist.Lognormal.sigma_of_mean_mode_ratio ~ratio_log10:1.0 in
  check_in_range "one decade at sigma ~1.2" ~lo:1.15 ~hi:1.28 sigma1;
  let sigma2 = Dist.Lognormal.sigma_of_mean_mode_ratio ~ratio_log10:2.0 in
  check_in_range "two decades at sigma ~1.7" ~lo:1.68 ~hi:1.79 sigma2

let test_lognormal_params_roundtrip =
  let gen =
    QCheck2.Gen.(
      pair
        (map (fun u -> -8.0 +. (6.0 *. u)) (float_bound_inclusive 1.0))
        (map (fun u -> 0.2 +. (1.5 *. u)) (float_bound_inclusive 1.0)))
  in
  qcheck "params recovers (mu, sigma)" gen (fun (mu, sigma) ->
      let d = Dist.Lognormal.make ~mu ~sigma in
      let mu', sigma' = Dist.Lognormal.params d in
      abs_float (mu -. mu') < 1e-9 && abs_float (sigma -. sigma') < 1e-9)

let test_gamma () =
  let d = Dist.Gamma_d.make ~shape:3.0 ~rate:2.0 in
  conformance "gamma" d [| 0.1; 0.5; 1.0; 2.0; 4.0 |];
  check_close "mean" 1.5 d.mean;
  check_close "variance" 0.75 d.variance;
  check_close "mode" 1.0 (Option.get d.mode);
  (* shape = 1 is the exponential. *)
  let e = Dist.Gamma_d.make ~shape:1.0 ~rate:2.0 in
  check_close ~eps:1e-12 "gamma(1,r) = exponential" (1.0 -. exp (-2.0))
    (e.cdf 1.0)

let test_gamma_of_mode () =
  let d = Dist.Gamma_d.of_mode_sigma ~mode:3e-3 ~sigma:5e-3 in
  check_close ~eps:1e-9 "mode honoured" 3e-3 (Option.get d.mode);
  check_close ~eps:1e-9 "sigma honoured" 5e-3 (Dist.std d);
  let d2 = Dist.Gamma_d.of_mode_mean ~mode:3e-3 ~mean:1e-2 in
  check_close ~eps:1e-9 "mode" 3e-3 (Option.get d2.mode);
  check_close ~eps:1e-9 "mean" 1e-2 d2.mean;
  check_raises_invalid "mean <= mode" (fun () ->
      ignore (Dist.Gamma_d.of_mode_mean ~mode:1e-2 ~mean:1e-3))

let test_beta () =
  let d = Dist.Beta_d.make ~a:2.0 ~b:6.0 in
  conformance "beta" d [| 0.05; 0.2; 0.4; 0.6; 0.8 |];
  check_close "mean" 0.25 d.mean;
  check_close "mode" (1.0 /. 6.0) (Option.get d.mode);
  let u = Dist.Beta_d.make ~a:1.0 ~b:1.0 in
  check_close ~eps:1e-12 "beta(1,1) is uniform" 0.37 (u.cdf 0.37);
  let m = Dist.Beta_d.of_mean_strength ~mean:0.2 ~strength:10.0 in
  check_close ~eps:1e-12 "of_mean_strength mean" 0.2 m.mean

let test_exponential () =
  let d = Dist.Exponential_d.make ~rate:3.0 in
  conformance "exponential" d [| 0.05; 0.2; 0.5; 1.0; 2.0 |];
  check_close "mean" (1.0 /. 3.0) d.mean;
  check_close ~eps:1e-12 "memoryless cdf" (1.0 -. exp (-1.5)) (d.cdf 0.5)

let test_uniform () =
  let d = Dist.Uniform_d.make ~lo:2.0 ~hi:6.0 in
  conformance "uniform" d [| 2.5; 3.0; 4.0; 5.0; 5.5 |];
  check_close "mean" 4.0 d.mean;
  check_close "variance" (16.0 /. 12.0) d.variance;
  check_close "cdf mid" 0.5 (d.cdf 4.0);
  check_raises_invalid "lo >= hi" (fun () ->
      ignore (Dist.Uniform_d.make ~lo:1.0 ~hi:1.0))

let suite =
  [ case "normal" test_normal;
    case "lognormal basics" test_lognormal_basic;
    case "lognormal paper parameterisation" test_lognormal_paper_parameterisation;
    test_lognormal_mean_mode_law;
    case "lognormal paper decade examples" test_lognormal_paper_decades;
    test_lognormal_params_roundtrip;
    case "gamma" test_gamma;
    case "gamma from mode" test_gamma_of_mode;
    case "beta" test_beta;
    case "exponential" test_exponential;
    case "uniform" test_uniform ]
