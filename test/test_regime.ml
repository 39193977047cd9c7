open Helpers
module R = Regime

let world = R.Population.sil2_world

let test_population () =
  let rng = rng_of_seed 131 in
  let samples = Array.init 20_000 (fun _ -> R.Population.sample world rng) in
  Array.iter
    (fun p ->
      if not (p > 0.0 && p < 1.0) then Alcotest.failf "pfd %g out of range" p)
    samples;
  (* Rogue fraction shows up as mass far above the ordinary mode. *)
  let rogues =
    Array.fold_left
      (fun acc p -> if p > 0.03 then acc + 1 else acc)
      0 samples
  in
  let fraction = float_of_int rogues /. 20_000.0 in
  check_in_range "rogue mass visible" ~lo:0.05 ~hi:0.20 fraction;
  check_raises_invalid "bad rogue fraction" (fun () ->
      ignore
        (R.Population.make ~label:"x" ~ordinary_mode:1e-3 ~ordinary_sigma:0.5
           ~rogue_fraction:1.0 ~rogue_factor:10.0));
  check_true "ground truth label"
    (R.Population.is_in_band world ~band:Sil.Band.Sil2 5e-3);
  check_true "ground truth label (bad)"
    (not (R.Population.is_in_band world ~band:Sil.Band.Sil2 5e-2))

let test_assessor () =
  let rng = rng_of_seed 132 in
  let belief = R.Assessor.assess R.Assessor.calibrated rng ~true_pfd:3e-3 in
  check_in_range "belief mean in a plausible range" ~lo:1e-4 ~hi:0.3
    (Dist.Mixture.mean belief);
  (* Calibration: over many systems, P(true <= q_p) should be ~p. *)
  let hits = ref 0 in
  let n = 2000 in
  for _ = 1 to n do
    let true_pfd = R.Population.sample world rng in
    let belief = R.Assessor.assess R.Assessor.calibrated rng ~true_pfd in
    if Dist.Mixture.prob_le belief true_pfd <= 0.9 then incr hits
  done;
  check_in_range "calibrated assessor covers at the 90% level" ~lo:0.86
    ~hi:0.94
    (float_of_int !hits /. float_of_int n);
  check_raises_invalid "bad true_pfd" (fun () ->
      ignore (R.Assessor.assess R.Assessor.calibrated rng ~true_pfd:0.0))

let test_policy_decisions () =
  let rng = rng_of_seed 133 in
  let tight =
    Dist.Mixture.of_dist (Dist.Lognormal.of_mode_sigma ~mode:3e-3 ~sigma:0.3)
  in
  let wide =
    Dist.Mixture.of_dist (Dist.Lognormal.of_mode_sigma ~mode:3e-3 ~sigma:1.2)
  in
  let accepts p belief =
    R.Policy.accepts p ~band:Sil.Band.Sil2 belief rng ~true_pfd:3e-3
  in
  (* Mode-based ignores spread: accepts both. *)
  check_true "mode accepts tight" (accepts R.Policy.Mode_based tight);
  check_true "mode accepts wide" (accepts R.Policy.Mode_based wide);
  (* Mean-based rejects the wide one (its mean is in SIL1). *)
  check_true "mean accepts tight" (accepts R.Policy.Mean_based tight);
  check_true "mean rejects wide" (not (accepts R.Policy.Mean_based wide));
  (* Confidence-based is stricter as the requirement rises. *)
  check_true "70% accepts tight" (accepts (R.Policy.Confidence_based 0.7) tight);
  check_true "99.9% rejects wide"
    (not (accepts (R.Policy.Confidence_based 0.999) wide));
  (* Conservative: needs massive confidence a decade down. *)
  check_true "conservative rejects wide"
    (not (accepts R.Policy.Conservative_based wide));
  Alcotest.(check int) "testing cost" 500
    (R.Policy.testing_cost (R.Policy.Test_first { demands = 500; confidence = 0.9 }));
  Alcotest.(check int) "no cost" 0 (R.Policy.testing_cost R.Policy.Mean_based)

let test_test_first_rejects_failing_systems () =
  (* A rogue system nearly always fails a 500-demand campaign. *)
  let rng = rng_of_seed 134 in
  let belief =
    Dist.Mixture.of_dist (Dist.Lognormal.of_mode_sigma ~mode:3e-3 ~sigma:0.3)
  in
  let policy = R.Policy.Test_first { demands = 500; confidence = 0.5 } in
  let accepted_rogue = ref 0 in
  for _ = 1 to 200 do
    if R.Policy.accepts policy ~band:Sil.Band.Sil2 belief rng ~true_pfd:0.05
    then incr accepted_rogue
  done;
  check_true "rogues caught by testing" (!accepted_rogue < 5)

let test_test_tolerant () =
  let rng = rng_of_seed 135 in
  let belief =
    Dist.Mixture.of_dist (Dist.Lognormal.of_mode_sigma ~mode:3e-3 ~sigma:0.5)
  in
  (* A decent system (pfd 3e-3, ~1.5 failures expected in 500 demands):
     the zero-tolerance policy usually rejects it; tolerating 5 failures
     usually accepts it. *)
  let strict = R.Policy.Test_first { demands = 500; confidence = 0.6 } in
  let tolerant =
    R.Policy.Test_tolerant { demands = 500; max_failures = 5; confidence = 0.6 }
  in
  let count policy =
    let acc = ref 0 in
    for _ = 1 to 200 do
      if R.Policy.accepts policy ~band:Sil.Band.Sil2 belief rng ~true_pfd:3e-3
      then incr acc
    done;
    !acc
  in
  let strict_n = count strict and tolerant_n = count tolerant in
  check_true "tolerance accepts more good systems" (tolerant_n > strict_n + 50);
  (* But a rogue still fails the tolerant campaign. *)
  let rogue_accepted = ref 0 in
  for _ = 1 to 200 do
    if R.Policy.accepts tolerant ~band:Sil.Band.Sil2 belief rng ~true_pfd:0.05
    then incr rogue_accepted
  done;
  check_true "rogues still caught" (!rogue_accepted < 5);
  Alcotest.(check int) "cost recorded" 500 (R.Policy.testing_cost tolerant)

let test_evaluate_ordering () =
  let policies =
    [ R.Policy.Mode_based; R.Policy.Confidence_based 0.9 ]
  in
  let outcomes =
    R.Evaluate.compare ~world ~assessor:R.Assessor.calibrated
      ~band:Sil.Band.Sil2 ~policies ~systems:1500 ~seed:42
  in
  match outcomes with
  | [ mode; conf90 ] ->
    check_true "confidence policy fields fewer bad systems"
      (conf90.accepted_bad < mode.accepted_bad);
    check_true "confidence policy fields a safer fleet"
      (conf90.mean_accepted_pfd < mode.mean_accepted_pfd);
    check_true "but rejects more good systems"
      (conf90.rejected_good > mode.rejected_good);
    Alcotest.(check int) "systems recorded" 1500 mode.systems
  | _ -> Alcotest.fail "two outcomes expected"

let test_evaluate_deterministic () =
  let run () =
    R.Evaluate.run ~world ~assessor:R.Assessor.calibrated ~band:Sil.Band.Sil2
      ~policy:R.Policy.Mean_based ~systems:500 ~seed:7
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same accepted" a.accepted b.accepted;
  check_close "same fleet pfd" a.mean_accepted_pfd b.mean_accepted_pfd

let test_run_par_deterministic () =
  (* The chunked evaluation merges exact integer tallies in chunk order:
     bit-identical outcomes at any domain count. *)
  let run d =
    Numerics.Parallel.with_pool ~num_domains:d (fun pool ->
        R.Evaluate.run_par ~pool ~chunks:16 ~world
          ~assessor:R.Assessor.calibrated ~band:Sil.Band.Sil2
          ~policy:(R.Policy.Confidence_based 0.9) ~systems:800 ~seed:7 ())
  in
  let a = run 1 and b = run 2 and c = run 4 in
  Alcotest.(check int) "accepted 1=2" a.R.Evaluate.accepted b.R.Evaluate.accepted;
  Alcotest.(check int) "accepted 2=4" b.R.Evaluate.accepted c.R.Evaluate.accepted;
  Alcotest.(check int) "accepted_bad 1=4" a.R.Evaluate.accepted_bad
    c.R.Evaluate.accepted_bad;
  check_true "fleet pfd bit-identical"
    (a.R.Evaluate.mean_accepted_pfd = b.R.Evaluate.mean_accepted_pfd
    && b.R.Evaluate.mean_accepted_pfd = c.R.Evaluate.mean_accepted_pfd);
  Alcotest.(check int) "systems recorded" 800 a.R.Evaluate.systems;
  check_raises_invalid "chunks < 1" (fun () ->
      ignore
        (R.Evaluate.run_par ~chunks:0 ~world ~assessor:R.Assessor.calibrated
           ~band:Sil.Band.Sil2 ~policy:R.Policy.Mean_based ~systems:10 ~seed:0
           ()));
  check_raises_invalid "systems < 1" (fun () ->
      ignore
        (R.Evaluate.run_par ~chunks:4 ~world ~assessor:R.Assessor.calibrated
           ~band:Sil.Band.Sil2 ~policy:R.Policy.Mean_based ~systems:0 ~seed:0
           ()))

(* Pinned streams: the outcomes of the seven decision-impact policies on
   400 systems from seed 7, recorded once as (accepted, accepted_bad,
   rejected_good, mean accepted pfd bits, expected accidents bits,
   testing demands) — from the scalar [run] and from [run_par] at 16
   chunks.  Determinism across domains cannot see a stream change that
   is the same at every domain count; these pins can. *)
let seven_policies =
  [ R.Policy.Mode_based; R.Policy.Mean_based;
    R.Policy.Confidence_based 0.7; R.Policy.Confidence_based 0.9;
    R.Policy.Conservative_based;
    R.Policy.Test_first { demands = 500; confidence = 0.9 };
    R.Policy.Test_tolerant
      { demands = 500; max_failures = 3; confidence = 0.9 } ]

let pinned_run =
  [ (347, 12, 17, 0x3f73eefe227a36c4L, 0x4010e3178b754925L, 0);
    (260, 1, 93, 0x3f6d463c4718bc6bL, 0x400295154321339aL, 0);
    (255, 1, 98, 0x3f6d47a128c9d15eL, 0x40023a77f4c4a4b8L, 0);
    (165, 1, 188, 0x3f6b1ddfdb8f97dfL, 0x3ff5d8d19aa4701bL, 0);
    (0, 0, 352, 0x0L, 0x0L, 0);
    (54, 0, 289, 0x3f679513cbdd08edL, 0x3fd8df3ae1031f6aL, 200000);
    (246, 0, 97, 0x3f6f1a2f5585fa27L, 0x4002adf9ed9d36fdL, 200000) ]

let pinned_run_par =
  [ (347, 11, 14, 0x3f75ce1829d6c621L, 0x401278f8b871d319L, 0);
    (237, 0, 113, 0x3f6e31bd2231fbfaL, 0x400178878f692becL, 0);
    (229, 0, 121, 0x3f6e09eeae564c87L, 0x4000cb4d9137ff89L, 0);
    (149, 0, 201, 0x3f6c95efcd97d11dL, 0x3ff4cc15b753b3e3L, 0);
    (0, 0, 350, 0x0L, 0x0L, 0);
    (59, 0, 300, 0x3f683732ca189195L, 0x3fdbe79b86e24fc3L, 200000);
    (263, 0, 96, 0x3f6d4cf777d47626L, 0x4002d04b65910b5cL, 200000) ]

let check_pinned what outcomes pinned =
  List.iter2
    (fun (o : R.Evaluate.outcome) (acc, bad, rej, pfd, accidents, testing) ->
      let got =
        ( o.accepted, o.accepted_bad, o.rejected_good,
          Int64.bits_of_float o.mean_accepted_pfd,
          Int64.bits_of_float o.expected_accidents_per_1000_demands,
          o.testing_demands )
      in
      if got <> (acc, bad, rej, pfd, accidents, testing) then
        Alcotest.failf "%s %s: outcome differs from its pinned bits" what
          (R.Policy.label o.policy))
    outcomes pinned

let test_pinned_streams () =
  let args f =
    f ~world ~assessor:R.Assessor.calibrated ~band:Sil.Band.Sil2
      ~policies:seven_policies ~systems:400 ~seed:7
  in
  check_pinned "run" (args R.Evaluate.compare) pinned_run;
  Numerics.Parallel.with_pool ~num_domains:2 (fun pool ->
      check_pinned "run_par at 16 chunks"
        (args (R.Evaluate.compare_par ~pool ~chunks:16) ())
        pinned_run_par)

let test_compare_par_plausible () =
  (* The parallel comparison preserves the qualitative safety ordering the
     scalar path established. *)
  let outcomes =
    R.Evaluate.compare_par ~chunks:16 ~world ~assessor:R.Assessor.calibrated
      ~band:Sil.Band.Sil2
      ~policies:[ R.Policy.Mode_based; R.Policy.Confidence_based 0.9 ]
      ~systems:1500 ~seed:42 ()
  in
  match outcomes with
  | [ mode; conf90 ] ->
    check_true "confidence policy fields fewer bad systems"
      (conf90.R.Evaluate.accepted_bad < mode.R.Evaluate.accepted_bad);
    check_true "confidence policy fields a safer fleet"
      (conf90.R.Evaluate.mean_accepted_pfd < mode.R.Evaluate.mean_accepted_pfd)
  | _ -> Alcotest.fail "two outcomes expected"

let test_summary_table () =
  let outcomes =
    R.Evaluate.compare ~world ~assessor:R.Assessor.calibrated
      ~band:Sil.Band.Sil2
      ~policies:[ R.Policy.Mean_based ]
      ~systems:200 ~seed:9
  in
  let t = R.Evaluate.summary_table outcomes in
  check_true "table mentions the policy" (String.length t > 50)

let suite =
  [ case "population sampling" test_population;
    case "assessor calibration" test_assessor;
    case "policy decisions" test_policy_decisions;
    case "testing catches rogues" test_test_first_rejects_failing_systems;
    case "failure-tolerant testing" test_test_tolerant;
    case "policies ordered by safety" test_evaluate_ordering;
    case "evaluation deterministic by seed" test_evaluate_deterministic;
    case "run_par bit-identical across domains" test_run_par_deterministic;
    case "compare_par preserves the safety ordering" test_compare_par_plausible;
    case "pinned streams: recorded run and run_par bits" test_pinned_streams;
    case "summary table" test_summary_table ]
