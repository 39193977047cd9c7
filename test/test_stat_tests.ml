open Helpers
module St = Numerics.Stat_tests

let test_chi_square_hand () =
  (* Fair-die example: observed [16;18;16;14;12;12], expected 88/6 each.
     Hand-computed statistic. *)
  let observed = [| 16; 18; 16; 14; 12; 12 |] in
  let expected = Array.make 6 (88.0 /. 6.0) in
  let r = St.chi_square ~observed ~expected in
  let stat =
    Array.to_list observed
    |> List.fold_left
         (fun acc o ->
           let e = 88.0 /. 6.0 in
           let d = float_of_int o -. e in
           acc +. (d *. d /. e))
         0.0
  in
  check_close ~eps:1e-12 "statistic" stat r.statistic;
  check_in_range "p for plausible data" ~lo:0.5 ~hi:1.0 r.p_value

let test_chi_square_rejects () =
  let observed = [| 100; 0; 0; 0 |] in
  let expected = Array.make 4 25.0 in
  let r = St.chi_square ~observed ~expected in
  check_true "huge statistic" (r.statistic > 100.0);
  check_true "tiny p" (r.p_value < 1e-10)

let test_chi_square_validation () =
  check_raises_invalid "one cell" (fun () ->
      ignore (St.chi_square ~observed:[| 3 |] ~expected:[| 3.0 |]));
  check_raises_invalid "length mismatch" (fun () ->
      ignore (St.chi_square ~observed:[| 1; 2 |] ~expected:[| 1.0 |]));
  check_raises_invalid "zero expected" (fun () ->
      ignore (St.chi_square ~observed:[| 1; 2 |] ~expected:[| 0.0; 3.0 |]))

let test_kolmogorov_survival () =
  check_close "Q(0) = 1" 1.0 (St.kolmogorov_survival 0.0);
  (* Known anchor: Q(1.36) ~ 0.05, Q(1.63) ~ 0.01. *)
  check_in_range "Q(1.36)" ~lo:0.045 ~hi:0.055 (St.kolmogorov_survival 1.36);
  check_in_range "Q(1.63)" ~lo:0.008 ~hi:0.012 (St.kolmogorov_survival 1.63);
  check_true "monotone decreasing"
    (St.kolmogorov_survival 0.5 > St.kolmogorov_survival 1.0)

let test_ks_uniform_accepts_uniform () =
  let rng = rng_of_seed 111 in
  let xs = Array.init 2000 (fun _ -> Numerics.Rng.float rng) in
  let r = St.ks_uniform xs in
  check_true "uniform data accepted" (r.p_value > 0.01)

let test_ks_uniform_rejects_beta () =
  let rng = rng_of_seed 112 in
  let xs = Array.init 2000 (fun _ -> Numerics.Rng.beta rng ~a:2.0 ~b:2.0) in
  let r = St.ks_uniform xs in
  check_true "beta(2,2) rejected" (r.p_value < 1e-6)

let test_ks_one_sample () =
  let rng = rng_of_seed 113 in
  let d = Dist.Normal.make ~mu:3.0 ~sigma:2.0 in
  let xs = Array.init 1500 (fun _ -> d.Dist.sample rng) in
  let ok = St.ks_one_sample xs ~cdf:d.Dist.cdf in
  check_true "matching cdf accepted" (ok.p_value > 0.01);
  let wrong = Dist.Normal.make ~mu:3.5 ~sigma:2.0 in
  let bad = St.ks_one_sample xs ~cdf:wrong.Dist.cdf in
  check_true "shifted cdf rejected" (bad.p_value < 1e-4);
  check_raises_invalid "too few samples" (fun () ->
      ignore (St.ks_one_sample [| 1.0; 2.0 |] ~cdf:d.Dist.cdf))

let test_ks_p_values_calibrated () =
  (* Under the null, p-values should themselves look uniform: check the
     rejection rate at the 10% level over repeated draws. *)
  let rng = rng_of_seed 114 in
  let rejections = ref 0 in
  let trials = 300 in
  for _ = 1 to trials do
    let xs = Array.init 200 (fun _ -> Numerics.Rng.float rng) in
    if (St.ks_uniform xs).p_value < 0.1 then incr rejections
  done;
  let rate = float_of_int !rejections /. float_of_int trials in
  check_in_range "10% nominal rejection" ~lo:0.04 ~hi:0.17 rate

(* The statistic as computed before it sorted through [Columns.sort]. *)
let ks_statistic_ref xs ~cdf =
  let sorted = sorted_copy xs in
  let n = Array.length sorted in
  let stat = ref 0.0 in
  Array.iteri
    (fun i x ->
      let f = cdf x in
      let hi = float_of_int (i + 1) /. float_of_int n in
      let lo = float_of_int i /. float_of_int n in
      stat := max !stat (max (abs_float (hi -. f)) (abs_float (f -. lo))))
    sorted;
  !stat

let test_ks_statistic_matches_sort =
  qcheck ~count:300 "KS statistic matches a sorted copy bitwise"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = rng_of_seed seed in
      let xs = tied_sample rng (8 + Numerics.Rng.int rng 300) in
      let cdf x = x *. x in
      same_bits (St.ks_one_sample xs ~cdf).statistic (ks_statistic_ref xs ~cdf))

let suite =
  [ case "chi-square by hand" test_chi_square_hand;
    case "chi-square rejects gross misfit" test_chi_square_rejects;
    case "chi-square validation" test_chi_square_validation;
    case "kolmogorov survival anchors" test_kolmogorov_survival;
    case "KS accepts uniform data" test_ks_uniform_accepts_uniform;
    case "KS rejects non-uniform data" test_ks_uniform_rejects_beta;
    case "KS one-sample" test_ks_one_sample;
    test_ks_statistic_matches_sort;
    case "KS p-values calibrated under the null" test_ks_p_values_calibrated ]
