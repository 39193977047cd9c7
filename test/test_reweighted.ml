open Helpers
module R = Dist.Reweighted
module M = Dist.Mixture

let test_flat_weight_is_identity () =
  let prior = M.of_dist (Dist.Lognormal.of_mode_sigma ~mode:3e-3 ~sigma:0.9) in
  let post, z = R.posterior prior ~weight:(fun _ -> 1.0) in
  (* Grid quadrature on 1025 points carries ~1e-5 of trapezoid error. *)
  check_close ~eps:1e-4 "evidence 1" 1.0 z;
  check_close ~eps:1e-4 "mean unchanged" (M.mean prior) (M.mean post);
  List.iter
    (fun x ->
      check_close ~eps:1e-4
        (Printf.sprintf "cdf at %g" x)
        (M.prob_le prior x) (M.prob_le post x))
    [ 1e-3; 3e-3; 1e-2 ]

let test_matches_conjugate_beta () =
  (* Beta prior + binomial survival likelihood has a closed-form posterior;
     the grid reweighting must reproduce it. *)
  let a = 2.0 and b = 50.0 and n = 200 in
  let prior = M.of_dist (Dist.Beta_d.make ~a ~b) in
  let weight p =
    if p >= 1.0 then 0.0 else exp (float_of_int n *. log (1.0 -. p))
  in
  let post, _ = R.posterior prior ~weight in
  let exact = Dist.Beta_d.make ~a ~b:(b +. float_of_int n) in
  check_close ~eps:1e-4 "posterior mean" exact.mean (M.mean post);
  List.iter
    (fun x ->
      check_close ~eps:1e-4
        (Printf.sprintf "posterior cdf at %g" x)
        (exact.cdf x) (M.prob_le post x))
    [ 0.005; 0.01; 0.02 ]

let test_binomial_normalising_constant () =
  (* Beta(a,b) prior x binomial likelihood p^k (1-p)^(n-k): the posterior
     is Beta(a+k, b+n-k) and the evidence is B(a+k, b+n-k) / B(a, b) —
     both in closed form, so this pins the normalising constant itself,
     not just the posterior's shape. *)
  let a = 2.0 and b = 50.0 in
  let n = 120 and k = 3 in
  let prior = M.of_dist (Dist.Beta_d.make ~a ~b) in
  let weight p =
    if p <= 0.0 || p >= 1.0 then 0.0
    else
      exp
        ((float_of_int k *. log p)
        +. (float_of_int (n - k) *. log (1.0 -. p)))
  in
  let post, z = R.posterior prior ~weight in
  let a' = a +. float_of_int k and b' = b +. float_of_int (n - k) in
  let exact = Dist.Beta_d.make ~a:a' ~b:b' in
  let lbeta x y =
    Numerics.Special.log_gamma x +. Numerics.Special.log_gamma y
    -. Numerics.Special.log_gamma (x +. y)
  in
  let exact_z = exp (lbeta a' b' -. lbeta a b) in
  check_close ~eps:1e-4 "evidence matches B(a',b')/B(a,b)" 1.0 (z /. exact_z);
  check_close ~eps:1e-4 "posterior mean" exact.Dist.mean (M.mean post);
  List.iter
    (fun x ->
      check_close ~eps:1e-4
        (Printf.sprintf "posterior cdf at %g" x)
        (exact.Dist.cdf x) (M.prob_le post x))
    [ 0.02; 0.04; 0.08 ]

let test_atoms_reweighted_exactly () =
  let prior =
    M.make [ (0.5, M.Atom 0.0); (0.3, M.Atom 0.5); (0.2, M.Atom 1.0) ]
  in
  let post, z = R.posterior prior ~weight:(fun x -> 1.0 -. x) in
  check_close ~eps:1e-12 "evidence" ((0.5 *. 1.0) +. (0.3 *. 0.5)) z;
  check_close ~eps:1e-12 "atom at 0" (0.5 /. 0.65) (M.atom_weight post 0.0);
  check_close ~eps:1e-12 "atom at 0.5" (0.15 /. 0.65) (M.atom_weight post 0.5);
  check_close "atom at 1 killed" 0.0 (M.atom_weight post 1.0)

let test_mixed_atom_and_continuous () =
  (* Perfection atom survives survival-weighting untouched in relative
     terms: weight(0) = 1 while the continuous part shrinks. *)
  let d = Dist.Lognormal.of_mode_sigma ~mode:3e-3 ~sigma:0.9 in
  let prior = M.with_perfection ~p0:0.1 (M.of_dist d) in
  let weight p = if p >= 1.0 then 0.0 else exp (1000.0 *. log (1.0 -. p)) in
  let post, z = R.posterior prior ~weight in
  check_true "evidence < 1" (z < 1.0);
  check_true "perfection mass grows" (M.atom_weight post 0.0 > 0.1);
  check_true "mean shrinks" (M.mean post < M.mean prior)

let test_bad_weight_rejected () =
  let prior = M.of_dist (Dist.Uniform_d.make ~lo:0.0 ~hi:1.0) in
  check_raises_invalid "negative weight" (fun () ->
      ignore (R.posterior prior ~weight:(fun _ -> -1.0)));
  check_raises_invalid "nan weight" (fun () ->
      ignore (R.posterior prior ~weight:(fun _ -> nan)));
  check_raises_invalid "annihilating weight" (fun () ->
      ignore
        (R.posterior (M.atom 0.5) ~weight:(fun _ -> 0.0)))

let test_component_grid () =
  let d = Dist.Lognormal.of_mode_sigma ~mode:3e-3 ~sigma:0.9 in
  let grid = R.component_grid d 101 in
  Alcotest.(check int) "size" 101 (Array.length grid);
  check_true "sorted strictly"
    (Array.for_all (fun b -> b) (Array.init 100 (fun i -> grid.(i) < grid.(i + 1))));
  check_true "positive support uses log spacing" (grid.(0) > 0.0)

let test_sequential_composition =
  (* Reweighting by n then m failure-free demands = reweighting by n+m. *)
  qcheck ~count:20 "survival weights compose"
    QCheck2.Gen.(pair (int_range 10 300) (int_range 10 300))
    (fun (n, m) ->
      let survival k p =
        if p >= 1.0 then 0.0 else exp (float_of_int k *. log (1.0 -. p))
      in
      let prior = M.of_dist (Dist.Beta_d.make ~a:1.5 ~b:80.0) in
      let once, _ = R.posterior prior ~weight:(survival (n + m)) in
      let step1, _ = R.posterior prior ~weight:(survival n) in
      let step2, _ = R.posterior step1 ~weight:(survival m) in
      abs_float (M.mean once -. M.mean step2) < 1e-5)

(* --- bit for bit against the array-per-pass reference (Grid_oracle) --- *)

module G = Grid_oracle

let same = same_bits

let outcome f =
  match f () with v -> Ok v | exception Invalid_argument msg -> Error msg

(* Every functional a grid posterior exposes, at the prior component's
   grid points, the midpoints between them and points outside the grid;
   quantiles at the cdf's own table values and a few fixed levels. *)
let same_dist ~grid (a : Dist.t) (b : Dist.t) =
  let n = Array.length grid in
  let xs =
    List.concat
      [ Array.to_list grid;
        List.init (n - 1) (fun i -> 0.5 *. (grid.(i) +. grid.(i + 1)));
        [ grid.(0) -. 1.0; grid.(n - 1) +. 1.0 ] ]
  in
  let ps =
    [ 1e-9; 1e-3; 0.05; 0.5; 0.95; 1.0 -. 1e-9 ]
    @ List.filter
        (fun p -> p > 0.0 && p < 1.0)
        (List.init (n / 16) (fun i -> b.cdf grid.(16 * i)))
  in
  same a.mean b.mean && same a.variance b.variance
  && Option.equal same a.mode b.mode
  && same (fst a.support) (fst b.support)
  && same (snd a.support) (snd b.support)
  && List.for_all
       (fun x -> same (a.cdf x) (b.cdf x) && same (a.pdf x) (b.pdf x))
       xs
  && List.for_all (fun p -> same (a.quantile p) (b.quantile p)) ps

(* [same_posterior prior lib oracle] — the same outcome: the same error
   text, or the same evidence, component weights and components. *)
let same_posterior prior lib oracle =
  match (lib, oracle) with
  | Error a, Error b -> a = b
  | Ok (post, z), Ok (post', z') ->
    let grids =
      List.filter_map
        (fun (_, c) ->
          match c with
          | M.Cont d -> Some (G.component_grid d 1025)
          | M.Atom _ -> None)
        (M.components prior)
    in
    let parts = M.components post and parts' = M.components post' in
    same z z'
    && List.length parts = List.length parts'
    && List.for_all2
         (fun (w, c) (w', c') ->
           same w w'
           &&
           match (c, c') with
           | M.Atom a, M.Atom a' -> same a a'
           | M.Cont d, M.Cont d' ->
             (* A surviving component was reweighted on its prior's grid. *)
             List.exists (fun grid -> same_dist ~grid d d') grids
           | _ -> false)
         parts parts'
    && List.for_all
         (fun x -> same (M.prob_le post x) (M.prob_le post' x))
         [ 0.0; 1e-5; 1e-4; 1e-3; 3e-3; 1e-2; 0.1; 0.5; 1.0 ]
  | _ -> false

(* A pfd belief drawn from [rng]: a normal (grid on a linear scale,
   straddling 0 when wide), a lognormal (log-scale grid), a mixture of
   both with atoms, or a belief piled up near 1 that large failure-free
   counts annihilate. *)
let random_belief rng =
  let u lo hi = Numerics.Rng.uniform rng lo hi in
  let normal () =
    let mu = u 1e-3 0.2 in
    Dist.Normal.make ~mu ~sigma:(mu *. u 0.1 1.5)
  in
  let lognormal () =
    Dist.Lognormal.make ~mu:(log (u 1e-5 0.3)) ~sigma:(u 0.2 2.5)
  in
  match Numerics.Rng.int rng 4 with
  | 0 -> M.of_dist (normal ())
  | 1 -> M.of_dist (lognormal ())
  | 2 ->
    let w = u 0.05 0.3 in
    M.make
      [ (w, M.Atom 0.0); (w /. 2.0, M.Atom (u 1e-4 1e-2));
        ((1.0 -. (1.5 *. w)) /. 2.0, M.Cont (lognormal ()));
        ((1.0 -. (1.5 *. w)) /. 2.0, M.Cont (normal ())) ]
  | _ ->
    let high = Dist.Normal.make ~mu:(u 0.5 0.8) ~sigma:(u 0.02 0.1) in
    if Numerics.Rng.bool rng then M.of_dist high
    else M.make [ (0.3, M.Atom 0.0); (0.7, M.Cont high) ]

let random_counts rng =
  let demands =
    [| 0; 1; 10; 100; 1_000; 10_000; 100_000; 1_000_000; 10_000_000 |]
  in
  let demands = demands.(Numerics.Rng.int rng (Array.length demands)) in
  (Numerics.Rng.int rng (1 + min demands 5), demands)

let test_posteriors_match_oracle =
  qcheck ~count:60 "posteriors match the array-per-pass oracle bitwise"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = rng_of_seed seed in
      let prior = random_belief rng in
      let failures, demands = random_counts rng in
      let weight = Experience.Bayes.demand_likelihood ~failures ~demands in
      let oracle = outcome (fun () -> G.posterior prior ~weight) in
      let one_shot =
        outcome (fun () ->
            Experience.Bayes.update_demands prior ~failures ~demands)
      in
      (* The prepared engine answers a different query first: its cached
         tables must come out of it unchanged. *)
      let prepared =
        outcome (fun () ->
            let eng = Experience.Bayes.Prepared.make prior in
            ignore
              (outcome (fun () ->
                   Experience.Bayes.Prepared.update_demands eng ~failures:0
                     ~demands:50));
            Experience.Bayes.Prepared.update_demands eng ~failures ~demands)
      in
      (* A weight that turns invalid above a cut: the same error text. *)
      let cut = Numerics.Rng.uniform rng 0.0 0.05 in
      let bad = if Numerics.Rng.bool rng then Float.nan else -1.0 in
      let broken x = if x > cut then bad else weight x in
      same_posterior prior one_shot oracle
      && same_posterior prior prepared oracle
      && same_posterior prior
           (outcome (fun () -> R.posterior prior ~weight:broken))
           (outcome (fun () -> G.posterior prior ~weight:broken)))

let test_annihilation_matches_oracle () =
  (* Every continuous component annihilated: the atom carries the whole
     posterior; with no atom, the same exception text. *)
  let high = Dist.Normal.make ~mu:0.6 ~sigma:0.05 in
  let weight =
    Experience.Bayes.demand_likelihood ~failures:0 ~demands:1_000_000
  in
  List.iter
    (fun prior ->
      let lib = outcome (fun () -> R.posterior prior ~weight) in
      let oracle = outcome (fun () -> G.posterior prior ~weight) in
      check_true "same outcome" (same_posterior prior lib oracle))
    [ M.of_dist high; M.make [ (0.4, M.Atom 0.0); (0.6, M.Cont high) ] ];
  match R.posterior (M.of_dist high) ~weight with
  | exception Invalid_argument msg ->
    Alcotest.(check string) "message"
      "Reweighted.posterior: weight annihilates all mass" msg
  | _ -> Alcotest.fail "expected annihilation"

let test_of_grid_values_matches_oracle =
  qcheck ~count:300 "of_grid_values matches the oracle, errors included"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = rng_of_seed seed in
      let n = 4 + Numerics.Rng.int rng 60 in
      let grid =
        if Numerics.Rng.bool rng then
          G.linspace (-1.0) (Numerics.Rng.uniform rng 0.5 3.0) n
        else G.logspace 1e-6 (Numerics.Rng.uniform rng 1e-3 1.0) n
      in
      (* Now and then a grid that is not strictly increasing. *)
      if Numerics.Rng.int rng 10 = 0 && Array.length grid > 3 then
        grid.(2) <- grid.(1);
      let values =
        Array.map
          (fun x ->
            match Numerics.Rng.int rng 40 with
            | 0 -> -1e-3
            | 1 -> Float.nan
            | 2 -> Float.infinity
            | 3 | 4 | 5 | 6 -> 0.0
            | _ -> abs_float x *. Numerics.Rng.float rng)
          grid
      in
      if Numerics.Rng.int rng 8 = 0 then
        Array.fill values 0 (Array.length values) 0.0;
      let lib =
        outcome (fun () ->
            Dist.of_grid_values ~name:"g" ~grid ~values:(Array.copy values) ())
      in
      let oracle =
        outcome (fun () -> G.of_grid_values ~name:"g" ~grid ~values ())
      in
      match (lib, oracle) with
      | Error a, Error b -> a = b
      | Ok (d, z), Ok (d', z') -> same z z' && same_dist ~grid d d'
      | _ -> false)

let test_lognormal_density_matches_oracle =
  qcheck ~count:300 "lognormal pdf/log_pdf match the two-log formula"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = rng_of_seed seed in
      let mu = Numerics.Rng.uniform rng (-12.0) 2.0 in
      let sigma = Numerics.Rng.uniform rng 0.05 3.0 in
      let d = Dist.Lognormal.make ~mu ~sigma in
      List.for_all
        (fun x ->
          same (d.pdf x) (G.lognormal_pdf ~mu ~sigma x)
          && same (d.log_pdf x) (G.lognormal_log_pdf ~mu ~sigma x))
        [ -1.0; 0.0; 5e-324; 1e-300; exp mu; Numerics.Rng.float rng;
          exp (Numerics.Rng.uniform rng (-30.0) 5.0); 1e300 ])

let suite =
  [ case "flat weight is identity" test_flat_weight_is_identity;
    case "matches conjugate beta posterior" test_matches_conjugate_beta;
    case "binomial weight: posterior + normalising constant"
      test_binomial_normalising_constant;
    case "atoms reweighted exactly" test_atoms_reweighted_exactly;
    case "atom + continuous interplay" test_mixed_atom_and_continuous;
    case "weight validation" test_bad_weight_rejected;
    case "evaluation grid construction" test_component_grid;
    test_sequential_composition;
    test_posteriors_match_oracle;
    case "annihilating evidence matches the oracle"
      test_annihilation_matches_oracle;
    test_of_grid_values_matches_oracle;
    test_lognormal_density_matches_oracle ]
