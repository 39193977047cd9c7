open Helpers
module Mc = Sim.Mc
module Ds = Sim.Demand_sim
module M = Dist.Mixture

let test_mc_estimate () =
  let rng = rng_of_seed 51 in
  let est = Mc.estimate ~n:20_000 rng (fun rng -> Numerics.Rng.float rng) in
  check_in_range "uniform mean" ~lo:0.49 ~hi:0.51 est.mean;
  check_true "stderr positive" (est.std_error > 0.0);
  check_true "CI ordered" (est.ci95_lo < est.mean && est.mean < est.ci95_hi);
  check_true "CI covers 0.5" (Mc.within est 0.5);
  Alcotest.(check int) "n recorded" 20_000 est.n;
  check_raises_invalid "n < 2" (fun () ->
      ignore (Mc.estimate ~n:1 rng (fun _ -> 0.0)))

let test_mc_probability () =
  let rng = rng_of_seed 52 in
  let est =
    Mc.probability ~n:50_000 rng (fun rng -> Numerics.Rng.float rng < 0.3)
  in
  check_true "covers 0.3" (Mc.within est 0.3)

let test_equation_4 () =
  (* P(fail on a random demand) = E[p] — the paper's equation (4), verified
     by simulation for a structured belief with perfection mass. *)
  let belief =
    M.with_perfection ~p0:0.2
      (M.of_dist (Dist.Beta_d.make ~a:2.0 ~b:30.0))
  in
  let rng = rng_of_seed 53 in
  let est = Ds.failure_probability ~n:400_000 rng belief in
  check_true "MC estimate covers E[p]" (Mc.within est (M.mean belief))

let test_conservative_bound_attained () =
  (* The worst-case belief attains x + y - xy exactly. *)
  let claim = Confidence.Claim.make ~bound:1e-2 ~confidence:0.95 in
  let rng = rng_of_seed 54 in
  let est, bound = Ds.check_conservative_bound ~n:400_000 rng claim in
  check_true "simulated failure rate matches the bound" (Mc.within est bound)

let test_campaign () =
  let belief = M.atom 0.01 in
  let rng = rng_of_seed 55 in
  let counts = Ds.failures_in_campaign ~n_systems:2000 ~demands:100 rng belief in
  Alcotest.(check int) "one count per system" 2000 (Array.length counts);
  let mean_failures =
    Numerics.Summary.mean (Array.map float_of_int counts)
  in
  (* Binomial(100, 0.01): mean 1. *)
  check_in_range "campaign failure counts" ~lo:0.9 ~hi:1.1 mean_failures

let test_survival_curve () =
  let belief = M.of_dist (Dist.Beta_d.make ~a:2.0 ~b:100.0) in
  let rng = rng_of_seed 56 in
  let curve =
    Ds.survival_curve ~n_systems:30_000 ~checkpoints:[ 0; 10; 100; 500 ] rng
      belief
  in
  Alcotest.(check int) "four checkpoints" 4 (List.length curve);
  check_close "all survive zero demands" 1.0 (List.assoc 0 curve);
  (* Monotone decreasing. *)
  let values = List.map snd curve in
  check_true "monotone" (List.sort (fun a b -> compare b a) values = values);
  (* Matches the analytic prior predictive E[(1-p)^n]. *)
  let analytic =
    Experience.Tail_cutoff.survival_probability belief ~n:100
  in
  let simulated = List.assoc 100 curve in
  check_in_range "matches E[(1-p)^100]"
    ~lo:(analytic -. 0.01) ~hi:(analytic +. 0.01) simulated

let test_survival_validation () =
  let rng = rng_of_seed 57 in
  check_raises_invalid "negative checkpoint" (fun () ->
      ignore
        (Ds.survival_curve ~n_systems:10 ~checkpoints:[ -1 ] rng (M.atom 0.5)));
  check_raises_invalid "no systems" (fun () ->
      ignore (Ds.failures_in_campaign ~n_systems:0 ~demands:1 rng (M.atom 0.5)))

let test_sketch_par_determinism () =
  (* The merged sketch — hence every quantile — is a pure function of
     (seed, chunks): bit-identical at any domain count. *)
  let ps = [| 0.05; 0.25; 0.5; 0.75; 0.95 |] in
  let run d =
    Numerics.Parallel.with_pool ~num_domains:d (fun pool ->
        Array.map
          (Numerics.Sketch.quantile
             (Mc.sketch_par_col ~pool ~n:50_000 ~chunks:16 ~seed:88 (fun () ->
                  fun rng buf ~pos ~len ->
                    Numerics.Rng.fill_floats_col rng buf ~pos ~len)))
          ps)
  in
  let a = run 1 in
  List.iter
    (fun d ->
      let b = run d in
      Array.iteri
        (fun i x ->
          check_true
            (Printf.sprintf "1=%d domains at p=%g" d ps.(i))
            (Int64.bits_of_float x = Int64.bits_of_float b.(i)))
        a)
    [ 2; 3; 4 ];
  (* Uniform stream: the quantiles are near p. *)
  Array.iteri
    (fun i p ->
      check_in_range
        (Printf.sprintf "uniform quantile p=%g" p)
        ~lo:(p -. 0.02) ~hi:(p +. 0.02) a.(i))
    ps

let test_sketch_par_counts_and_validation () =
  let sk =
    Mc.sketch_par_col ~n:10_000 ~chunks:8 ~seed:9 (fun () ->
        fun rng buf ~pos ~len -> Numerics.Rng.fill_floats_col rng buf ~pos ~len)
  in
  Alcotest.(check int) "every sample observed" 10_000
    (Numerics.Sketch.count sk);
  check_raises_invalid "n < 1" (fun () ->
      ignore
        (Mc.sketch_par_col ~n:0 ~chunks:1 ~seed:0 (fun () ->
             fun _ _ ~pos:_ ~len:_ -> ())));
  check_raises_invalid "chunks < 1" (fun () ->
      ignore
        (Mc.sketch_par_col ~n:10 ~chunks:0 ~seed:0 (fun () ->
             fun _ _ ~pos:_ ~len:_ -> ())))

let test_estimate_quantiles_par () =
  (* One fan-out feeding both states equals the two separate runs bit for
     bit at every domain count, and over a lifted scalar sampler the
     estimate equals scalar [estimate_par]; a multi-segment run (chunks
     longer than [batch_size]) and an empty chunk are included. *)
  let bits = Int64.bits_of_float in
  let f rng = Numerics.Rng.lognormal rng ~mu:(-5.0) ~sigma:1.2 in
  let ps = [| 0.1; 0.5; 0.9 |] in
  List.iter
    (fun (n, chunks) ->
      let make_fill () = Mc.fill_col_of_scalar f in
      let scalar = Mc_oracle.estimate_par ~n ~chunks ~seed:17 f in
      let sk = Mc.sketch_par_col ~n ~chunks ~seed:17 make_fill in
      let sk = Array.map (Numerics.Sketch.quantile sk) ps in
      List.iter
        (fun d ->
          let e, qs =
            Numerics.Parallel.with_pool ~num_domains:d (fun pool ->
                Mc.estimate_quantiles_par ~pool ~n ~chunks ~seed:17 ~ps
                  make_fill)
          in
          let tag = Printf.sprintf "n=%d chunks=%d domains=%d" n chunks d in
          check_true (tag ^ ": estimate = estimate_par")
            (List.for_all2
               (fun a b -> bits a = bits b)
               [ e.Mc.mean; e.std_error; e.ci95_lo; e.ci95_hi ]
               [ scalar.Mc.mean; scalar.std_error; scalar.ci95_lo;
                 scalar.ci95_hi ]
            && e.n = scalar.n);
          check_true (tag ^ ": quantiles = sketch_par_col")
            (Array.for_all2 (fun a b -> bits a = bits b) qs sk))
        [ 1; 2 ])
    [ (200, 16); (3 * Mc.batch_size + 17, 2); (5, 8) ];
  check_raises_invalid "n < 2" (fun () ->
      ignore
        (Mc.estimate_quantiles_par ~n:1 ~chunks:1 ~seed:0 ~ps (fun () ->
             Mc.fill_col_of_scalar f)))

let test_fill_col_of_scalar () =
  (* The lifted fill consumes the generator exactly like a scalar loop,
     so the batched estimate over [fill_col_of_scalar f] reproduces the
     scalar [estimate_par] stream bit for bit. *)
  let f rng = Numerics.Rng.normal rng ~mu:2.0 ~sigma:0.5 in
  let scalar = Mc_oracle.estimate_par ~n:20_000 ~chunks:16 ~seed:91 f in
  let lifted =
    Mc.estimate_par_batched_col ~n:20_000 ~chunks:16 ~seed:91 (fun () ->
        Mc.fill_col_of_scalar f)
  in
  check_true "same mean" (scalar.mean = lifted.mean);
  check_true "same stderr" (scalar.std_error = lifted.std_error)

let test_pfd_sketch_par () =
  (* Sketch quantiles of a pfd belief agree with the analytic mixture
     quantiles within the documented rank error. *)
  let d = Dist.Lognormal.of_mode_sigma ~mode:0.003 ~sigma:0.8 in
  let belief = M.of_dist d in
  let sk =
    Ds.pfd_sketch_par ~n:100_000 ~chunks:32 ~seed:92 belief
  in
  Alcotest.(check int) "count" 100_000 (Numerics.Sketch.count sk);
  List.iter
    (fun p ->
      let approx = Numerics.Sketch.quantile sk p in
      (* Value error back to rank space through the analytic CDF. *)
      let rank = M.prob_le belief approx in
      check_in_range
        (Printf.sprintf "rank at p=%g" p)
        ~lo:(p -. 0.02) ~hi:(p +. 0.02) rank)
    [ 0.05; 0.25; 0.5; 0.75; 0.95 ];
  (* Bit-identical across domain counts, like every parallel kernel: the
     count and the 5/50/95% quantiles of the merged sketch. *)
  let run d =
    Numerics.Parallel.with_pool ~num_domains:d (fun pool ->
        let sk = Ds.pfd_sketch_par ~pool ~n:20_000 ~chunks:8 ~seed:93 belief in
        ( Numerics.Sketch.count sk,
          List.map
            (fun p -> Int64.bits_of_float (Numerics.Sketch.quantile sk p))
            [ 0.05; 0.5; 0.95 ] ))
  in
  let reference = run 1 in
  List.iter
    (fun d ->
      check_true
        (Printf.sprintf "sketch bit-identical at 1 and %d domains" d)
        (run d = reference))
    [ 2; 3; 4 ]

let suite =
  [ case "MC estimator" test_mc_estimate;
    case "sketch_par bit-identical across domains" test_sketch_par_determinism;
    case "sketch_par counts and validation" test_sketch_par_counts_and_validation;
    case "fill_of_scalar replays the scalar stream" test_fill_col_of_scalar;
    case "estimate_quantiles_par = estimate_par + sketch_par_col"
      test_estimate_quantiles_par;
    case "pfd_sketch_par matches analytic quantiles" test_pfd_sketch_par;
    case "MC probability" test_mc_probability;
    case "equation (4) verified by simulation" test_equation_4;
    case "conservative bound attained by the worst case" test_conservative_bound_attained;
    case "test campaigns" test_campaign;
    case "survival curves" test_survival_curve;
    case "simulation validation" test_survival_validation ]
