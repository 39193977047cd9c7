open Helpers
module P = Numerics.Parallel
module Mc = Sim.Mc
module Ds = Sim.Demand_sim

let test_chunk_sizes () =
  Alcotest.(check (array int)) "balanced" [| 3; 3; 2; 2 |]
    (P.chunk_sizes ~n:10 ~chunks:4);
  Alcotest.(check (array int)) "exact division" [| 5; 5 |]
    (P.chunk_sizes ~n:10 ~chunks:2);
  let sizes = P.chunk_sizes ~n:2 ~chunks:5 in
  Alcotest.(check int) "more chunks than items still sums" 2
    (Array.fold_left ( + ) 0 sizes);
  Alcotest.(check (array int)) "n = 0" [| 0; 0; 0 |]
    (P.chunk_sizes ~n:0 ~chunks:3);
  check_raises_invalid "chunks < 1" (fun () ->
      ignore (P.chunk_sizes ~n:1 ~chunks:0));
  check_raises_invalid "n < 0" (fun () ->
      ignore (P.chunk_sizes ~n:(-1) ~chunks:1));
  (* Slice bounds: ascending from 0 to n, each gap the chunk's size. *)
  List.iter
    (fun (n, chunks) ->
      let b = P.slice_bounds ~n ~chunks in
      let sizes = P.chunk_sizes ~n ~chunks in
      Alcotest.(check int) "bounds count" (chunks + 1) (Array.length b);
      Alcotest.(check int) "bounds start at 0" 0 b.(0);
      Alcotest.(check int) "bounds end at n" n b.(chunks);
      for c = 0 to chunks - 1 do
        check_true "bounds monotone" (b.(c) <= b.(c + 1));
        Alcotest.(check int) "bound gap = chunk size" sizes.(c)
          (b.(c + 1) - b.(c))
      done)
    [ (10, 4); (10, 2); (2, 5); (0, 3); (1_000_003, 64) ];
  Alcotest.(check (array int)) "chunks > n: empty slices past n"
    [| 0; 1; 2; 2; 2 |] (P.slice_bounds ~n:2 ~chunks:4);
  check_raises_invalid "slice_bounds chunks < 1" (fun () ->
      ignore (P.slice_bounds ~n:1 ~chunks:0));
  (* Chunk resolution: an explicit count wins, and one below 1 raises
     with the caller's name. *)
  Alcotest.(check int) "explicit chunks win" 7 (P.resolve_chunks ~chunks:7 "X");
  check_true "default chunks >= 1" (P.resolve_chunks "X" >= 1);
  match P.resolve_chunks ~chunks:0 "Caller.entry" with
  | _ -> Alcotest.fail "chunks = 0 accepted"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "caller named" "Caller.entry: chunks < 1" msg

let test_pool_basics () =
  List.iter
    (fun d ->
      P.with_pool ~num_domains:d (fun pool ->
          check_true
            (Printf.sprintf "pool of %d has >= 1 domain" d)
            (P.num_domains pool >= 1);
          let out = P.map_chunks ~pool ~chunks:13 (fun i -> i * i) in
          Alcotest.(check (array int))
            (Printf.sprintf "squares at %d domains" d)
            (Array.init 13 (fun i -> i * i))
            out;
          (* The pool is reusable across batches. *)
          let out2 = P.map_chunks ~pool ~chunks:3 (fun i -> -i) in
          Alcotest.(check (array int)) "second batch" [| 0; -1; -2 |] out2))
    [ 1; 2; 4 ];
  check_raises_invalid "num_domains < 1" (fun () ->
      ignore (P.create ~num_domains:0 ()));
  check_raises_invalid "chunks < 1" (fun () ->
      ignore (P.map_chunks ~chunks:0 (fun i -> i)))

let test_reduce_order () =
  (* A non-commutative merge exposes any ordering nondeterminism. *)
  let concat d =
    P.with_pool ~num_domains:d (fun pool ->
        P.parallel_for_reduce ~pool ~chunks:9 ~init:""
          ~body:(fun i -> string_of_int i)
          ~merge:( ^ ))
  in
  Alcotest.(check string) "chunk order at 1 domain" "012345678" (concat 1);
  Alcotest.(check string) "chunk order at 4 domains" "012345678" (concat 4)

let test_exception_propagates () =
  List.iter
    (fun d ->
      P.with_pool ~num_domains:d (fun pool ->
          (match
             P.map_chunks ~pool ~chunks:4 (fun i ->
                 if i = 2 then failwith "boom" else i)
           with
          | exception Failure msg -> Alcotest.(check string) "message" "boom" msg
          | _ -> Alcotest.fail "expected Failure");
          (* A failed batch must not wedge the pool. *)
          let out = P.map_chunks ~pool ~chunks:3 (fun i -> i) in
          Alcotest.(check (array int)) "pool survives" [| 0; 1; 2 |] out))
    [ 1; 2 ]

let test_shutdown_idempotent () =
  let pool = P.create ~num_domains:2 () in
  P.shutdown pool;
  P.shutdown pool

let estimates_equal (a : Mc.estimate) (b : Mc.estimate) =
  a.mean = b.mean && a.std_error = b.std_error && a.ci95_lo = b.ci95_lo
  && a.ci95_hi = b.ci95_hi && a.n = b.n

let test_estimate_par_determinism () =
  (* Bit-identical results for a fixed (seed, chunks) at every domain
     count — the core contract of the split-stream fan-out. *)
  let run d =
    P.with_pool ~num_domains:d (fun pool ->
        Mc_oracle.estimate_par ~pool ~n:20_000 ~chunks:16 ~seed:917 (fun rng ->
            Numerics.Rng.normal rng ~mu:1.0 ~sigma:2.0))
  in
  let a = run 1 and b = run 2 and c = run 4 in
  check_true "1 domain = 2 domains" (estimates_equal a b);
  check_true "2 domains = 4 domains" (estimates_equal b c);
  check_in_range "mean sane" ~lo:0.9 ~hi:1.1 a.mean;
  Alcotest.(check int) "n recorded" 20_000 a.n;
  check_raises_invalid "n < 2" (fun () ->
      ignore (Mc_oracle.estimate_par ~n:1 ~chunks:1 ~seed:0 (fun _ -> 0.0)));
  check_raises_invalid "chunks < 1" (fun () ->
      ignore (Mc_oracle.estimate_par ~n:10 ~chunks:0 ~seed:0 (fun _ -> 0.0)))

let test_estimate_par_degenerate_chunking () =
  (* More chunks than samples: most chunks draw nothing and contribute an
     empty accumulator to the chunk-order merge. *)
  let run d =
    P.with_pool ~num_domains:d (fun pool ->
        Mc_oracle.estimate_par ~pool ~n:3 ~chunks:16 ~seed:101 (fun rng ->
            Numerics.Rng.float rng))
  in
  let a = run 1 and b = run 2 and c = run 4 in
  check_true "1 domain = 2 domains" (estimates_equal a b);
  check_true "2 domains = 4 domains" (estimates_equal b c);
  Alcotest.(check int) "all 3 samples drawn" 3 a.n;
  (* The batched path hits the same degenerate sizes (and must skip the
     zero-size chunks without touching its scratch buffer). *)
  let batched d =
    P.with_pool ~num_domains:d (fun pool ->
        Mc.estimate_par_batched_col ~pool ~n:3 ~chunks:16 ~seed:101 (fun () ->
            fun rng buf ~pos ~len ->
              Numerics.Rng.fill_floats_col rng buf ~pos ~len))
  in
  let ba = batched 1 and bb = batched 4 in
  check_true "batched: 1 domain = 4 domains" (estimates_equal ba bb);
  (* fill_floats_col is bit-compatible with scalar [Rng.float] and the
     column Welford fold with per-element add, so here the batched path
     reproduces the scalar stream exactly. *)
  check_true "batched = scalar stream" (estimates_equal a ba)

let test_estimate_par_batched_determinism () =
  let run d =
    P.with_pool ~num_domains:d (fun pool ->
        Mc.estimate_par_batched_col ~pool ~n:20_000 ~chunks:16 ~seed:917
          (fun () ->
            fun rng buf ~pos ~len ->
              Numerics.Rng.fill_normals_col rng buf ~pos ~len ~mu:1.0
                ~sigma:2.0))
  in
  let a = run 1 and b = run 2 and c = run 4 in
  check_true "1 domain = 2 domains" (estimates_equal a b);
  check_true "2 domains = 4 domains" (estimates_equal b c);
  let scalar =
    Mc_oracle.estimate_par ~n:20_000 ~chunks:16 ~seed:917 (fun rng ->
        Numerics.Rng.normal rng ~mu:1.0 ~sigma:2.0)
  in
  check_true "bit-compatible kernel reproduces the scalar stream"
    (estimates_equal a scalar);
  check_raises_invalid "n < 2" (fun () ->
      ignore
        (Mc.estimate_par_batched_col ~n:1 ~chunks:1 ~seed:0 (fun () ->
             fun _ _ ~pos:_ ~len:_ -> ())));
  check_raises_invalid "chunks < 1" (fun () ->
      ignore
        (Mc.estimate_par_batched_col ~n:10 ~chunks:0 ~seed:0 (fun () ->
             fun _ _ ~pos:_ ~len:_ -> ())))

let test_nested_batched_scratch () =
  (* A sampler that itself runs a batched estimate: the inner run borrows
     scratch on the same domain while the outer run's column holds filled
     slots.  With distinct borrows the outer batched path replays the
     scalar stream exactly, as [fill_col_of_scalar] promises. *)
  P.with_pool ~num_domains:1 (fun inner_pool ->
      let inner rng =
        let seed = Numerics.Rng.int rng 1_000_000 in
        (Mc.estimate_par_batched_col ~pool:inner_pool ~chunks:1 ~n:8 ~seed
           (fun () -> Mc.fill_col_of_scalar Numerics.Rng.float))
          .mean
      in
      List.iter
        (fun (d, chunks) ->
          P.with_pool ~num_domains:d (fun pool ->
              let scalar =
                Mc_oracle.estimate_par ~pool ~chunks ~n:64 ~seed:5 inner
              in
              let batched =
                Mc.estimate_par_batched_col ~pool ~chunks ~n:64 ~seed:5
                  (fun () -> Mc.fill_col_of_scalar inner)
              in
              check_true
                (Printf.sprintf "nested = scalar at %d domains, %d chunks" d
                   chunks)
                (estimates_equal scalar batched)))
        [ (1, 1); (2, 1); (1, 4); (2, 4) ]);
  (* Nested borrows are distinct columns, and a borrow ended by an
     exception is handed back: the next borrow gets the same column (the
     columns escape here only to compare identities). *)
  check_true "nested borrows are distinct columns"
    (Mc.with_scratch 4 (fun outer ->
         Mc.with_scratch 4 (fun inner -> outer != inner)));
  let first = Mc.with_scratch 4 Fun.id in
  (try Mc.with_scratch 4 (fun _ -> failwith "boom") with Failure _ -> ());
  check_true "a raising borrow returns its column"
    (Mc.with_scratch 4 Fun.id == first)

let test_failure_probability_par_batched () =
  let claim = Confidence.Claim.make ~bound:1e-3 ~confidence:0.99 in
  let belief = Confidence.Conservative.worst_case_belief claim in
  let run d =
    P.with_pool ~num_domains:d (fun pool ->
        Ds.failure_probability_par ~pool ~n:50_000 ~chunks:16 ~seed:77 belief)
  in
  let a = run 1 and b = run 4 in
  check_true "bit-identical across domain counts" (estimates_equal a b);
  check_true "CI covers the analytic failure probability"
    (Mc.within a (Dist.Mixture.mean belief))

let test_global_pool () =
  let p1 = P.global_pool () in
  let p2 = P.global_pool () in
  check_true "second call returns the same pool" (p1 == p2);
  check_true "at least one domain" (P.num_domains p1 >= 1);
  let out = P.map_chunks ~pool:p1 ~chunks:5 (fun i -> i) in
  Alcotest.(check (array int)) "usable for batches" [| 0; 1; 2; 3; 4 |] out

let test_create_overcommit () =
  (* Requesting far more domains than the runtime allows must degrade to a
     smaller pool ([Domain.spawn] signals the cap with [Failure]), never
     raise out of [create]. *)
  let pool = P.create ~num_domains:1000 () in
  check_true "pool exists" (P.num_domains pool >= 1);
  let out = P.map_chunks ~pool ~chunks:7 (fun i -> i * 2) in
  Alcotest.(check (array int)) "degraded pool still works"
    (Array.init 7 (fun i -> i * 2))
    out;
  P.shutdown pool

let test_estimate_par_chunk_sensitivity () =
  (* Changing the chunk count legitimately changes the streams; the answer
     must stay statistically equivalent, not bitwise. *)
  let run chunks =
    Mc_oracle.estimate_par ~n:20_000 ~chunks ~seed:917 (fun rng ->
        Numerics.Rng.float rng)
  in
  let a = run 8 and b = run 32 in
  check_true "different chunking differs bitwise" (a.mean <> b.mean);
  check_true "both cover 0.5" (Mc.within a 0.5 && Mc.within b 0.5)

let test_probability_par () =
  let est =
    Mc.probability_par ~n:50_000 ~chunks:16 ~seed:52 (fun rng ->
        Numerics.Rng.float rng < 0.3)
  in
  check_true "covers 0.3" (Mc.within est 0.3)

let test_conservative_bound_par () =
  (* Inequality (5) still holds on the parallel path: the worst-case
     belief's simulated failure rate matches the analytic bound, and the
     parallel CI agrees with the sequential one. *)
  let claim = Confidence.Claim.make ~bound:1e-2 ~confidence:0.95 in
  let est_par, bound =
    Ds.check_conservative_bound_par ~n:200_000 ~chunks:32 ~seed:54 claim
  in
  check_true "parallel CI covers the bound" (Mc.within est_par bound);
  let rng = rng_of_seed 54 in
  let est_seq, _ = Ds.check_conservative_bound ~n:200_000 rng claim in
  check_true "sequential mean inside parallel CI" (Mc.within est_par est_seq.mean);
  check_true "parallel mean inside sequential CI" (Mc.within est_seq est_par.mean)

(* The estimate, CI and bound of the worst-case check are a pure
   function of (seed, chunks): bit-identical at 1, 2 and 4 domains. *)
let test_conservative_bound_par_determinism () =
  let claim = Confidence.Claim.make ~bound:1e-4 ~confidence:0.9991 in
  let run d =
    P.with_pool ~num_domains:d (fun pool ->
        Ds.check_conservative_bound_par ~pool ~n:100_000 ~chunks:16 ~seed:57
          claim)
  in
  let fingerprint ((e : Mc.estimate), bound) =
    ( List.map Int64.bits_of_float
        [ e.mean; e.std_error; e.ci95_lo; e.ci95_hi; bound ],
      e.n )
  in
  let reference = fingerprint (run 1) in
  List.iter
    (fun d ->
      check_true
        (Printf.sprintf "estimate and bound bit-identical at %d domains" d)
        (fingerprint (run d) = reference))
    [ 2; 4 ]

let test_survival_curve_par () =
  let belief = Dist.Mixture.of_dist (Dist.Beta_d.make ~a:2.0 ~b:100.0) in
  let run d =
    P.with_pool ~num_domains:d (fun pool ->
        Ds.survival_curve_par ~pool ~n_systems:30_000 ~chunks:16 ~seed:56
          ~checkpoints:[ 0; 10; 100; 500 ] belief)
  in
  let a = run 1 in
  List.iter
    (fun d ->
      check_true
        (Printf.sprintf "curve bit-identical at 1 and %d domains" d)
        (run d = a))
    [ 2; 4 ];
  check_close "all survive zero demands" 1.0 (List.assoc 0 a);
  let analytic = Experience.Tail_cutoff.survival_probability belief ~n:100 in
  check_in_range "matches E[(1-p)^100]"
    ~lo:(analytic -. 0.01) ~hi:(analytic +. 0.01) (List.assoc 100 a);
  check_raises_invalid "negative checkpoint" (fun () ->
      ignore
        (Ds.survival_curve_par ~n_systems:10 ~chunks:2 ~seed:0
           ~checkpoints:[ -1 ] belief))

let test_default_num_domains () =
  check_true "at least one domain" (P.default_num_domains () >= 1)

let test_default_chunks () =
  (* The pure decision function behind the CONFCASE_CHUNKS default. *)
  Alcotest.(check int) "8x domains" 32
    (P.default_chunks_with ~domains:4 ~spec:None);
  Alcotest.(check int) "floor of one domain" 8
    (P.default_chunks_with ~domains:1 ~spec:None);
  Alcotest.(check int) "degenerate domain count clamps" 8
    (P.default_chunks_with ~domains:0 ~spec:None);
  Alcotest.(check int) "env override wins" 64
    (P.default_chunks_with ~domains:4 ~spec:(Some "64"));
  Alcotest.(check int) "whitespace tolerated" 12
    (P.default_chunks_with ~domains:4 ~spec:(Some " 12 "));
  Alcotest.(check int) "garbage falls back" 32
    (P.default_chunks_with ~domains:4 ~spec:(Some "lots"));
  Alcotest.(check int) "non-positive falls back" 32
    (P.default_chunks_with ~domains:4 ~spec:(Some "0"));
  check_true "live default is positive" (P.default_chunks () >= 1);
  P.with_pool ~num_domains:2 (fun pool ->
      check_true "pool-derived default is positive"
        (P.default_chunks ~pool () >= 1))

let test_optional_chunks_defaulting () =
  (* Entry points accept an omitted ~chunks and still obey their n
     validation; the defaulted chunk count is machine-dependent, so only
     statistical properties are asserted. *)
  let est =
    Mc_oracle.estimate_par ~n:10_000 ~seed:3 (fun rng -> Numerics.Rng.float rng)
  in
  check_true "defaulted chunks cover 0.5" (Mc.within est 0.5);
  Alcotest.(check int) "n recorded" 10_000 est.n

let suite =
  [ case "chunk sizes" test_chunk_sizes;
    case "pool map_chunks" test_pool_basics;
    case "reduce preserves chunk order" test_reduce_order;
    case "exceptions propagate, pool survives" test_exception_propagates;
    case "shutdown idempotent" test_shutdown_idempotent;
    case "estimate_par bit-identical across domains" test_estimate_par_determinism;
    case "degenerate chunking (zero-size chunks)" test_estimate_par_degenerate_chunking;
    case "estimate_par_batched bit-identical across domains"
      test_estimate_par_batched_determinism;
    case "nested batched runs borrow distinct scratch"
      test_nested_batched_scratch;
    case "batched failure_probability_par" test_failure_probability_par_batched;
    case "global pool is shared and reusable" test_global_pool;
    case "create degrades gracefully when over-committed" test_create_overcommit;
    case "chunk count is part of the contract" test_estimate_par_chunk_sensitivity;
    case "probability_par" test_probability_par;
    case "conservative bound on the parallel path" test_conservative_bound_par;
    case "check_conservative_bound_par bit-identical across domains"
      test_conservative_bound_par_determinism;
    case "survival_curve_par determinism" test_survival_curve_par;
    case "default domain count" test_default_num_domains;
    case "default chunk count" test_default_chunks;
    case "omitted ~chunks defaults sanely" test_optional_chunks_defaulting ]
