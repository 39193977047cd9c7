open Helpers
module C = Elicit.Calibration

let test_brier () =
  check_close "perfect" 0.0 (C.brier [ (1.0, true); (0.0, false) ]);
  check_close "worst" 1.0 (C.brier [ (0.0, true); (1.0, false) ]);
  check_close "hedging" 0.25 (C.brier [ (0.5, true); (0.5, false) ]);
  check_close ~eps:1e-12 "mixed"
    (((0.8 -. 1.0) ** 2.0 +. (0.3 -. 0.0) ** 2.0) /. 2.0)
    (C.brier [ (0.8, true); (0.3, false) ]);
  check_raises_invalid "empty" (fun () -> ignore (C.brier []));
  check_raises_invalid "forecast out of range" (fun () ->
      ignore (C.brier [ (1.2, true) ]))

let test_log_score () =
  check_close ~eps:1e-12 "certain and right" 0.0 (C.log_score [ (1.0, true) ]);
  check_true "certain and wrong blows up"
    (C.log_score [ (1.0, false) ] = infinity);
  check_close ~eps:1e-12 "half" (log 2.0) (C.log_score [ (0.5, true) ])

let test_calibration_curve () =
  let predictions =
    [ (0.1, false); (0.1, false); (0.1, true);
      (0.9, true); (0.9, true); (0.9, false) ]
  in
  let curve = C.calibration_curve ~bins:10 predictions in
  Alcotest.(check int) "two occupied bins" 2 (List.length curve);
  (match curve with
  | [ (c1, f1, n1); (c2, f2, n2) ] ->
    check_close "low bin centre" 0.15 c1;
    check_close ~eps:1e-12 "low bin freq" (1.0 /. 3.0) f1;
    Alcotest.(check int) "low bin count" 3 n1;
    check_close "high bin centre" 0.95 c2;
    check_close ~eps:1e-12 "high bin freq" (2.0 /. 3.0) f2;
    Alcotest.(check int) "high bin count" 3 n2
  | _ -> Alcotest.fail "unexpected curve shape");
  check_raises_invalid "bins < 1" (fun () ->
      ignore (C.calibration_curve ~bins:0 predictions))

let test_pit_calibrated_expert () =
  (* A perfectly calibrated expert: belief = the true generating
     distribution.  PIT values must look uniform. *)
  let rng = rng_of_seed 71 in
  let d = Dist.Lognormal.of_mode_sigma ~mode:3e-3 ~sigma:0.8 in
  let pairs = List.init 2000 (fun _ -> (d, d.Dist.sample rng)) in
  let pit = C.pit_values pairs in
  let ks = C.ks_uniform_stat pit in
  check_true "calibrated expert has small KS" (ks < 0.035)

let test_pit_overconfident_expert () =
  (* Overconfident: claims half the true spread.  KS must flag it. *)
  let rng = rng_of_seed 72 in
  let truth = Dist.Lognormal.of_mode_sigma ~mode:3e-3 ~sigma:0.8 in
  let claimed = Dist.Lognormal.of_mode_sigma ~mode:3e-3 ~sigma:0.4 in
  let pairs = List.init 2000 (fun _ -> (claimed, truth.Dist.sample rng)) in
  let ks = C.ks_uniform_stat (C.pit_values pairs) in
  check_true "overconfidence detected" (ks > 0.1)

let test_ks_bounds () =
  check_in_range "ks in [0,1]" ~lo:0.0 ~hi:1.0
    (C.ks_uniform_stat [ 0.1; 0.5; 0.9 ]);
  (* A point mass is maximally non-uniform. *)
  check_true "degenerate sample"
    (C.ks_uniform_stat [ 0.5; 0.5; 0.5; 0.5 ] >= 0.5);
  check_raises_invalid "empty" (fun () -> ignore (C.ks_uniform_stat []))

(* The statistic as computed before it sorted through [Columns.sort]. *)
let ks_uniform_stat_ref xs =
  let arr = sorted_copy (Array.of_list xs) in
  let n = Array.length arr in
  let stat = ref 0.0 in
  Array.iteri
    (fun i x ->
      let ecdf_hi = float_of_int (i + 1) /. float_of_int n in
      let ecdf_lo = float_of_int i /. float_of_int n in
      stat := max !stat (max (abs_float (ecdf_hi -. x)) (abs_float (x -. ecdf_lo))))
    arr;
  !stat

let test_ks_matches_sort =
  qcheck ~count:300 "KS statistic matches a sorted copy bitwise"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = rng_of_seed seed in
      let xs = Array.to_list (tied_sample rng (1 + Numerics.Rng.int rng 300)) in
      same_bits (C.ks_uniform_stat xs) (ks_uniform_stat_ref xs))

let suite =
  [ case "brier score" test_brier;
    case "log score" test_log_score;
    case "calibration curve" test_calibration_curve;
    case "PIT of a calibrated expert" test_pit_calibrated_expert;
    case "PIT flags overconfidence" test_pit_overconfident_expert;
    case "KS statistic bounds" test_ks_bounds;
    test_ks_matches_sort ]
