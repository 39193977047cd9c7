open Helpers
module S = Experience.Stream
module T = Experience.Tail_cutoff
module M = Dist.Mixture
module Cols = Numerics.Columns

let bits = Int64.bits_of_float
let check_bits name a b = Alcotest.(check int64) name (bits a) (bits b)

(* Posterior equality, checked bitwise at several functionals — the
   acceptance gate of the streaming engine. *)
let check_posterior name a b =
  check_bits (name ^ ": mean") (M.mean a) (M.mean b);
  check_bits (name ^ ": P(<=1e-2)") (M.prob_le a 1e-2) (M.prob_le b 1e-2);
  check_bits (name ^ ": P(<=1e-4)") (M.prob_le a 1e-4) (M.prob_le b 1e-4);
  check_bits (name ^ ": q25") (M.quantile a 0.25) (M.quantile b 0.25)

let pfd_prior () =
  M.with_perfection ~p0:0.05
    (M.of_dist (Dist.Lognormal.of_mode_sigma ~mode:3e-3 ~sigma:0.9))

let rate_prior () =
  M.of_dist (Dist.Lognormal.of_mode_sigma ~mode:3e-7 ~sigma:0.9)

let test_streamed_equals_batch_demands () =
  let prior = pfd_prior () in
  let acc = S.demand_of_belief prior in
  (* Failure-free demands in uneven events... *)
  List.iter
    (fun d -> S.observe_demands acc ~demands:d ~failures:0)
    [ 1; 249; 250; 400; 100 ];
  check_posterior "failure-free streamed = after_demands" (S.posterior acc)
    (T.after_demands prior ~n:1000);
  (* ... then some failures: the batch reference becomes update_demands
     on the pooled totals. *)
  S.observe_demands acc ~demands:500 ~failures:2;
  S.observe_demands acc ~demands:0 ~failures:0;
  check_posterior "with failures streamed = update_demands"
    (S.posterior acc)
    (fst (Experience.Bayes.update_demands prior ~failures:2 ~demands:1500));
  Alcotest.(check int) "events" 7 (S.events acc);
  Alcotest.(check int) "demands" 1500 (S.demands acc);
  Alcotest.(check int) "failures" 2 (S.failures acc)

let test_streamed_equals_batch_hours () =
  let prior = rate_prior () in
  let acc = S.rate_of_belief prior in
  (* Hour batches whose float sum is exact, so the batch reference sees
     literally the same total. *)
  List.iter
    (fun h -> S.observe_hours acc ~hours:h ~failures:0)
    [ 25000.0; 50000.0; 25000.0 ];
  check_bits "hours total" 100000.0 (S.hours acc);
  check_posterior "failure-free streamed = after_hours" (S.posterior acc)
    (T.after_hours prior ~t:100000.0);
  S.observe_hours acc ~hours:100000.0 ~failures:1;
  check_posterior "with a failure streamed = update_time" (S.posterior acc)
    (fst (Experience.Bayes.update_time prior ~failures:1 ~time:200000.0))

let test_conjugate_fast_paths () =
  let acc = S.demand_beta ~a:1.5 ~b:100.0 in
  S.observe_demands acc ~demands:400 ~failures:3;
  let exact =
    Experience.Bayes.beta_posterior ~a:1.5 ~b:100.0 ~failures:3 ~demands:400
  in
  check_bits "beta posterior mean" exact.Dist.mean (S.mean acc);
  let racc = S.rate_gamma ~shape:2.0 ~rate:1e6 in
  S.observe_hours racc ~hours:5e6 ~failures:1;
  let rexact =
    Experience.Bayes.gamma_posterior ~shape:2.0 ~rate:1e6 ~failures:1
      ~time:5e6
  in
  check_bits "gamma posterior mean" rexact.Dist.mean (S.mean racc)

let test_no_evidence_is_prior () =
  let prior = pfd_prior () in
  let acc = S.demand_of_belief prior in
  check_true "zero-evidence posterior is the prior itself"
    (S.posterior acc == prior)

(* Random event columns for the parallel/merge tests. *)
let event_columns ~rows seed =
  let rng = rng_of_seed seed in
  let d = Cols.create ~capacity:rows () and f = Cols.create ~capacity:rows () in
  for _ = 1 to rows do
    let demands = Numerics.Rng.int rng 4 in
    let failures = if demands = 0 then 0 else Numerics.Rng.int rng (demands + 1) in
    Cols.push d (float_of_int demands);
    Cols.push f (float_of_int failures)
  done;
  (d, f)

let test_parallel_ingest_domain_count_invariance () =
  let demands, failures = event_columns ~rows:10_000 7 in
  let sequential = S.demand_beta ~a:1.0 ~b:50.0 in
  S.ingest_demands_col sequential ~demands ~failures;
  List.iter
    (fun num_domains ->
      Numerics.Parallel.with_pool ~num_domains (fun pool ->
          List.iter
            (fun chunks ->
              let acc = S.demand_beta ~a:1.0 ~b:50.0 in
              S.ingest_demands_par ~pool ~chunks acc ~demands ~failures;
              let at = Printf.sprintf "@ %d domains x %d chunks" num_domains chunks in
              Alcotest.(check int) ("demands " ^ at) (S.demands sequential) (S.demands acc);
              Alcotest.(check int) ("failures " ^ at) (S.failures sequential) (S.failures acc);
              Alcotest.(check int) ("events " ^ at) (S.events sequential) (S.events acc);
              check_bits ("posterior mean " ^ at) (S.mean sequential) (S.mean acc))
            [ 1; 4; 8; 16 ]))
    [ 1; 2; 4 ]

(* Parallel ingestion into a mixture prior (the Section 4 belief) must
   reproduce the one-shot batch update on the pooled totals, bitwise.
   2x10^4 events at a true rate of 3e-3: grid reweighting is bounded by
   likelihood underflow, so the event count stays modest. *)
let test_parallel_ingest_equals_batch () =
  let rows = 20_000 in
  let rng = rng_of_seed 13 in
  let demands = Cols.make rows 1.0 in
  let hours = Cols.create ~capacity:rows ()
  and failures = Cols.create ~capacity:rows () in
  for _ = 1 to rows do
    Cols.push hours (Numerics.Rng.uniform rng 0.5 1.5);
    Cols.push failures (if Numerics.Rng.bernoulli rng 3e-3 then 1.0 else 0.0)
  done;
  let prior_pfd = M.of_dist (Dist.Lognormal.of_mode_mean ~mode:3e-3 ~mean:1e-2) in
  let prior_rate = rate_prior () in
  List.iter
    (fun num_domains ->
      Numerics.Parallel.with_pool ~num_domains (fun pool ->
          let acc = S.demand_of_belief prior_pfd in
          S.ingest_demands_par ~pool acc ~demands ~failures;
          check_posterior
            (Printf.sprintf "demands @ %d domains" num_domains)
            (S.posterior acc)
            (fst
               (Experience.Bayes.update_demands prior_pfd ~failures:(S.failures acc)
                  ~demands:(S.demands acc)));
          let acc = S.rate_of_belief prior_rate in
          S.ingest_hours_par ~pool acc ~hours ~failures;
          check_posterior
            (Printf.sprintf "hours @ %d domains" num_domains)
            (S.posterior acc)
            (fst
               (Experience.Bayes.update_time prior_rate ~failures:(S.failures acc)
                  ~time:(S.hours acc)))))
    [ 1; 2; 4 ]

let test_parallel_ingest_hours () =
  let rng = rng_of_seed 11 in
  let rows = 5000 in
  let hours = Cols.create ~capacity:rows ()
  and failures = Cols.create ~capacity:rows () in
  for _ = 1 to rows do
    Cols.push hours (Numerics.Rng.uniform rng 0.0 10.0);
    Cols.push failures (if Numerics.Rng.bernoulli rng 0.01 then 1.0 else 0.0)
  done;
  let sequential = S.rate_gamma ~shape:1.0 ~rate:1e3 in
  S.ingest_hours_col sequential ~hours ~failures;
  Numerics.Parallel.with_pool ~num_domains:4 (fun pool ->
      let acc = S.rate_gamma ~shape:1.0 ~rate:1e3 in
      S.ingest_hours_par ~pool ~chunks:16 acc ~hours ~failures;
      (* The exact hour sum makes even irrational chunk splits land on
         identical totals — bit for bit. *)
      check_bits "hours total" (S.hours sequential) (S.hours acc);
      check_bits "posterior mean" (S.mean sequential) (S.mean acc))

(* qcheck: chunk-order merging of an arbitrary 3-way split is
   associative and reproduces sequential ingestion; the empty
   accumulator is a merge identity. *)
let events_gen =
  QCheck2.Gen.(
    list_size (int_range 0 30)
      (map2
         (fun d f -> (d, if d = 0 then 0 else f mod (d + 1)))
         (int_range 0 5) (int_range 0 5)))

let accumulate evs =
  let t = S.demand_beta ~a:2.0 ~b:40.0 in
  List.iter (fun (d, f) -> S.observe_demands t ~demands:d ~failures:f) evs;
  t

let test_merge_associativity =
  qcheck ~count:200 "stream merge associativity and identity"
    QCheck2.Gen.(tup3 events_gen events_gen events_gen)
    (fun (xs, ys, zs) ->
      let left = S.merge (S.merge (accumulate xs) (accumulate ys)) (accumulate zs) in
      let right = S.merge (accumulate xs) (S.merge (accumulate ys) (accumulate zs)) in
      let seq = accumulate (xs @ ys @ zs) in
      let with_identity = S.merge seq (S.demand_beta ~a:2.0 ~b:40.0) in
      let same a b =
        S.demands a = S.demands b
        && S.failures a = S.failures b
        && S.events a = S.events b
        && Int64.equal (bits (S.mean a)) (bits (S.mean b))
      in
      same left right && same left seq && same with_identity seq)

let test_merge_compatibility () =
  check_raises_invalid "different beta priors" (fun () ->
      ignore (S.merge (S.demand_beta ~a:1.0 ~b:2.0) (S.demand_beta ~a:1.0 ~b:3.0)));
  check_raises_invalid "different modes" (fun () ->
      ignore
        (S.merge (S.demand_beta ~a:1.0 ~b:2.0) (S.rate_gamma ~shape:1.0 ~rate:2.0)));
  (* Structurally equal but physically distinct mixture priors must be
     rejected: the merge contract demands the same prior object. *)
  check_raises_invalid "distinct mixture prior objects" (fun () ->
      ignore
        (S.merge (S.demand_of_belief (pfd_prior ())) (S.demand_of_belief (pfd_prior ()))));
  let shared = pfd_prior () in
  let a = S.demand_of_belief shared and b = S.demand_of_belief shared in
  S.observe_demands a ~demands:10 ~failures:0;
  S.observe_demands b ~demands:20 ~failures:1;
  let m = S.merge a b in
  Alcotest.(check int) "pooled demands" 30 (S.demands m);
  Alcotest.(check int) "pooled failures" 1 (S.failures m)

let test_what_if_queries () =
  let prior = pfd_prior () in
  let acc = S.demand_of_belief prior in
  S.observe_demands acc ~demands:100 ~failures:1;
  let hyp = S.posterior_after_demands acc ~extra:400 in
  let really = S.copy acc in
  S.observe_demands really ~demands:400 ~failures:0;
  check_posterior "what-if equals actually observing" hyp (S.posterior really);
  check_true "extra:0 is the cached posterior"
    (S.posterior_after_demands acc ~extra:0 == S.posterior acc);
  check_true "accumulator unchanged" (S.demands acc = 100);
  let racc = S.rate_of_belief (rate_prior ()) in
  S.observe_hours racc ~hours:50000.0 ~failures:0;
  let rhyp = S.posterior_after_hours racc ~extra:50000.0 in
  let rreally = S.copy racc in
  S.observe_hours rreally ~hours:50000.0 ~failures:0;
  check_posterior "hours what-if equals observing" rhyp (S.posterior rreally)

let with_temp_snapshot f =
  let path = Filename.temp_file "confcase_stream" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let check_restored name a b =
  Alcotest.(check int) (name ^ ": demands") (S.demands a) (S.demands b);
  Alcotest.(check int) (name ^ ": failures") (S.failures a) (S.failures b);
  Alcotest.(check int) (name ^ ": events") (S.events a) (S.events b);
  check_bits (name ^ ": hours") (S.hours a) (S.hours b);
  check_bits (name ^ ": posterior mean") (S.mean a) (S.mean b)

let test_snapshot_round_trip () =
  (* Conjugate accumulator: rebuilds entirely from the snapshot, via
     both the plain and the mmap load path. *)
  let acc = S.rate_gamma ~shape:2.0 ~rate:1e6 in
  List.iter
    (fun h -> S.observe_hours acc ~hours:h ~failures:0)
    [ 0.1; 1e7; 3.7e-3; 250000.0 ];
  S.observe_hours acc ~hours:500.0 ~failures:2;
  with_temp_snapshot (fun path ->
      Cols.save path (S.to_columns acc);
      let plain = S.of_columns (Cols.load path) in
      check_restored "plain load" acc plain;
      let mapped = S.of_columns (Cols.load ~mmap:true path) in
      check_restored "mmap load" acc mapped);
  (* Mixture accumulator: the prior is supplied at restore. *)
  let prior = pfd_prior () in
  let macc = S.demand_of_belief prior in
  S.observe_demands macc ~demands:750 ~failures:1;
  with_temp_snapshot (fun path ->
      Cols.save path (S.to_columns macc);
      let restored = S.of_columns ~prior (Cols.load path) in
      check_restored "mixture restore" macc restored;
      check_posterior "mixture restore posterior" (S.posterior macc)
        (S.posterior restored);
      match S.of_columns (Cols.load path) with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "restore without ~prior should fail")

let test_ingestion_validation () =
  let acc = S.demand_beta ~a:1.0 ~b:1.0 in
  check_raises_invalid "failures > demands" (fun () ->
      S.observe_demands acc ~demands:1 ~failures:2);
  check_raises_invalid "negative demands" (fun () ->
      S.observe_demands acc ~demands:(-1) ~failures:0);
  check_raises_invalid "wrong mode" (fun () ->
      S.observe_hours acc ~hours:1.0 ~failures:0);
  let d = Cols.create () and f = Cols.create () in
  Cols.push d 1.5;
  Cols.push f 0.0;
  check_raises_invalid "fractional count column" (fun () ->
      S.ingest_demands_col acc ~demands:d ~failures:f);
  let racc = S.rate_gamma ~shape:1.0 ~rate:1.0 in
  check_raises_invalid "nan hours" (fun () ->
      S.observe_hours racc ~hours:nan ~failures:0);
  check_raises_invalid "infinite hours" (fun () ->
      S.observe_hours racc ~hours:infinity ~failures:0);
  check_raises_invalid "bad beta prior" (fun () ->
      ignore (S.demand_beta ~a:0.0 ~b:1.0));
  check_raises_invalid "bad gamma prior" (fun () ->
      ignore (S.rate_gamma ~shape:1.0 ~rate:nan))

let suite =
  [ case "streamed = batch (demand mixture)" test_streamed_equals_batch_demands;
    case "streamed = batch (rate mixture)" test_streamed_equals_batch_hours;
    case "conjugate fast paths" test_conjugate_fast_paths;
    case "no evidence returns the prior" test_no_evidence_is_prior;
    case "parallel ingest at 1/2/4 domains" test_parallel_ingest_domain_count_invariance;
    case "parallel ingest = batch (mixture priors)" test_parallel_ingest_equals_batch;
    case "parallel hour ingest" test_parallel_ingest_hours;
    test_merge_associativity;
    case "merge compatibility checks" test_merge_compatibility;
    case "what-if posterior queries" test_what_if_queries;
    case "snapshot round trip (plain and mmap)" test_snapshot_round_trip;
    case "ingestion validation" test_ingestion_validation ]
