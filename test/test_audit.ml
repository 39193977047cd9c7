(* The semantic audit engine: soundness of the interval pass against the
   propagation engine, the SPOF dominator pass against brute-force
   refutation, and the C013-C016 diagnostics on known cases. *)

open Helpers
module N = Casekit.Node
module G = Casekit.Graph
module Gen = Casekit.Generate
module A = Analysis.Audit
module D = Analysis.Diagnostic
module Columns = Numerics.Columns

let bits = Int64.bits_of_float
let same_bits a b = Int64.equal (bits a) (bits b)

let models =
  [ ("independent", G.Independent);
    ("frechet lower", G.Frechet_lower);
    ("frechet upper", G.Frechet_upper);
    ("correlated 0.37", G.Correlated 0.37) ]

(* --- interval soundness ---------------------------------------------------- *)

(* Under every dependence model: the static interval is well-formed, the
   propagated value lies inside it at the root, and with point leaf
   bounds (base, base) the interval sweep reproduces propagation bitwise
   at every node — it runs the same float operations in the same order.
   Parallel propagation must agree bitwise at 1, 2 and 4 domains, so the
   interval also contains every parallel result. *)
let bounds_sound g =
  let root = G.root g in
  List.for_all
    (fun (_, dep) ->
      let value = G.propagate dep g in
      let lo, hi = G.propagate_bounds dep g in
      let well_formed = ref true in
      for i = 0 to G.size g - 1 do
        let l = Columns.get lo i and h = Columns.get hi i in
        if not (0.0 <= l && l <= h && h <= 1.0) then well_formed := false
      done;
      let vals = G.values g in
      let plo, phi =
        G.propagate_bounds
          ~leaf_bounds:(fun i ->
            (G.base_confidence g i, G.base_confidence g i))
          dep g
      in
      let point_identical = ref true in
      for i = 0 to G.size g - 1 do
        let v = Columns.get vals i in
        if
          not
            (same_bits (Columns.get plo i) v
            && same_bits (Columns.get phi i) v)
        then point_identical := false
      done;
      let par_identical =
        List.for_all
          (fun d ->
            Numerics.Parallel.with_pool ~num_domains:d (fun pool ->
                same_bits (G.propagate_par ~pool ~chunks:8 dep g) value))
          [ 1; 2; 4 ]
      in
      !well_formed
      && Columns.get lo root <= value
      && value <= Columns.get hi root
      && !point_identical && par_identical)
    models

let test_bounds_soundness_property =
  qcheck ~count:100 "propagated value within static bounds, all models"
    gen_seed_depth (fun (seed, depth) ->
      bounds_sound (G.of_node (random_tree (rng_of_seed seed) ~depth)))

(* The same soundness on generated cases, shared-evidence DAGs included,
   where the overlap floor on rho enters the correlated model. *)
let test_bounds_soundness_generated =
  qcheck ~count:40 "static bounds sound on generated cases and DAGs"
    QCheck2.Gen.(
      triple (int_bound 1_000_000) (int_range 1 3) (oneofl [ 0.0; 0.1; 0.5 ]))
    (fun (seed, depth, shared) ->
      bounds_sound (Gen.case ~seed ~legs:4 ~fanout:3 ~depth ~shared ()))

(* Random non-trivial leaf intervals: any evidence assignment drawn from
   within them must propagate to a root inside the static interval. *)
let test_custom_leaf_bounds_property =
  qcheck ~count:100 "assignments within leaf bounds stay within the interval"
    gen_seed_depth (fun (seed, depth) ->
      let rng = rng_of_seed seed in
      let t = random_tree rng ~depth in
      let g = G.of_node t in
      let root = G.root g in
      let n = G.size g in
      let blo = Array.make n 0.0 and bhi = Array.make n 1.0 in
      Array.iter
        (fun i ->
          let c = G.base_confidence g i in
          blo.(i) <- c *. Numerics.Rng.uniform rng 0.0 1.0;
          bhi.(i) <- c +. ((1.0 -. c) *. Numerics.Rng.uniform rng 0.0 1.0))
        (G.evidence_indices g);
      let leaf_bounds i = (blo.(i), bhi.(i)) in
      List.for_all
        (fun (_, dep) ->
          let lo, hi = G.propagate_bounds ~leaf_bounds dep g in
          List.for_all
            (fun _ ->
              Array.iter
                (fun i ->
                  G.set_evidence g i
                    (Float.max 1e-12
                       (Numerics.Rng.uniform rng blo.(i) bhi.(i))))
                (G.evidence_indices g);
              let value = G.propagate dep g in
              Columns.get lo root <= value && value <= Columns.get hi root)
            [ (); (); () ])
        models)

let test_bounds_validation () =
  let g = G.of_node (random_tree (rng_of_seed 7) ~depth:2) in
  check_raises_invalid "inverted leaf bounds" (fun () ->
      ignore (G.propagate_bounds ~leaf_bounds:(fun _ -> (0.8, 0.2)) G.Independent g));
  check_raises_invalid "leaf bounds above 1" (fun () ->
      ignore (G.propagate_bounds ~leaf_bounds:(fun _ -> (0.5, 1.5)) G.Independent g));
  check_raises_invalid "audit target out of range" (fun () ->
      ignore (A.graph ~options:{ A.default_options with target = Some 0.0 } g));
  check_raises_invalid "max_per_code < 1" (fun () ->
      ignore (A.graph ~options:{ A.default_options with max_per_code = 0 } g))

(* --- SPOF dominators ------------------------------------------------------- *)

(* Reference semantics: evidence [e] is a single point of failure iff the
   root no longer holds when [e] alone is refuted, under the boolean
   reading (All = conjunction, Any = disjunction). *)
let brute_force_spofs g =
  let rec holds refuted i =
    match G.kind_of g i with
    | G.Evidence -> i <> refuted
    | G.All_goal -> Array.for_all (holds refuted) (G.children g i)
    | G.Any_goal -> Array.exists (holds refuted) (G.children g i)
  in
  let root = G.root g in
  G.evidence_indices g
  |> Array.to_list
  |> List.filter (fun e -> not (holds e root))
  |> Array.of_list

let test_spof_brute_force_property =
  qcheck ~count:150 "spof_evidence matches brute-force refutation"
    gen_seed_depth (fun (seed, depth) ->
      let g = G.of_node (random_tree (rng_of_seed seed) ~depth) in
      let fast = G.spof_evidence g in
      let slow = brute_force_spofs g in
      Array.sort Stdlib.compare fast; (* lint: allow-poly-compare *)
      fast = slow)

let test_spof_brute_force_dag =
  qcheck ~count:60 "spof_evidence matches brute force on shared-evidence DAGs"
    (QCheck2.Gen.int_bound 1_000_000) (fun seed ->
      let g =
        Gen.case ~seed ~legs:3 ~fanout:3 ~depth:2 ~shared:0.7 ()
      in
      let fast = G.spof_evidence g in
      let slow = brute_force_spofs g in
      Array.sort Stdlib.compare fast; (* lint: allow-poly-compare *)
      fast = slow)

(* Graphs of up to 10^4 nodes, conjunctive roots among them, so the
   kill-set pool grows and compacts many times. *)
let test_spof_oracle =
  qcheck ~count:40 "spof_evidence matches the array-per-node oracle on large graphs"
    QCheck2.Gen.(
      tup4 (int_bound 1_000_000) (int_range 1 3) (int_range 2 10)
        (oneofl [ 0.0; 0.3; 0.7 ]))
    (fun (seed, legs, fanout, shared) ->
      let depth = if fanout <= 4 then 5 else 3 in
      let g = Gen.case ~seed ~legs ~fanout ~depth ~shared () in
      G.spof_evidence g = Case_oracle.spof_evidence g)

let test_spof_goldens () =
  let conj =
    G.of_node
      (N.goal ~id:"r" ~statement:"root" ~combinator:N.All
         [ N.evidence ~id:"e1" ~statement:"a" ~confidence:0.9;
           N.evidence ~id:"e2" ~statement:"b" ~confidence:0.8 ])
  in
  Alcotest.(check int) "conjunctive root: every leaf is a SPOF" 2
    (Array.length (G.spof_evidence conj));
  let disj =
    G.of_node
      (N.goal ~id:"r" ~statement:"root" ~combinator:N.Any
         [ N.goal ~id:"l1" ~statement:"leg1"
             [ N.evidence ~id:"e1" ~statement:"a" ~confidence:0.9 ];
           N.goal ~id:"l2" ~statement:"leg2"
             [ N.evidence ~id:"e2" ~statement:"b" ~confidence:0.8 ] ])
  in
  Alcotest.(check int) "independent legs: no SPOF" 0
    (Array.length (G.spof_evidence disj));
  (* Both legs cite the same item: refuting it defeats the root even
     though the root is disjunctive. *)
  let b = G.Builder.create () in
  let s = G.Builder.evidence b ~id:"shared" ~confidence:0.9 () in
  let e1 = G.Builder.evidence b ~id:"e1" ~confidence:0.8 () in
  let e2 = G.Builder.evidence b ~id:"e2" ~confidence:0.7 () in
  let l1 = G.Builder.goal b ~id:"l1" ~combinator:N.All [| s; e1 |] in
  let l2 = G.Builder.goal b ~id:"l2" ~combinator:N.All [| s; e2 |] in
  let r = G.Builder.goal b ~id:"r" ~combinator:N.Any [| l1; l2 |] in
  let dag = G.Builder.build b ~root:r in
  let spofs = G.spof_evidence dag in
  Alcotest.(check int) "shared evidence is the only SPOF" 1
    (Array.length spofs);
  Alcotest.(check string) "and it is the shared item" "shared"
    (G.id_of dag spofs.(0))

(* --- diagnostics ----------------------------------------------------------- *)

let codes diags = List.map (fun (d : D.t) -> d.code) diags
let count_code c diags = List.length (List.filter (fun (d : D.t) -> d.code = c) diags)

let unattainable_text =
  {|goal G0 "Protection system pfd < 1e-4" all
  assume A0 "Single-channel demand profile holds" 0.8
  evidence E1 "Factory acceptance test" 0.95
  evidence E2 "Field experience" 0.9
|}

let test_attainability_goldens () =
  let opts target = { A.default_options with target = Some target } in
  let diags = A.case ~options:(opts 0.9) unattainable_text in
  check_true "C013 fires when the assumption budget caps the root"
    (List.mem "C013" (codes diags));
  check_true "C015 blames the assumptions (evidence alone could reach it)"
    (List.mem "C015" (codes diags));
  Alcotest.(check int) "C013 is an error: exit 2" 2 (D.exit_code diags);
  let reachable = A.case ~options:(opts 0.7) unattainable_text in
  check_true "no C013/C015 at a reachable target"
    (not (List.mem "C013" (codes reachable))
    && not (List.mem "C015" (codes reachable)));
  let untargeted = A.case unattainable_text in
  check_true "no attainability rules without --target"
    (not (List.mem "C013" (codes untargeted))
    && not (List.mem "C015" (codes untargeted)))

(* C013 without C015: the evidence interval itself (from belief-derived
   leaf bounds), not the assumptions, is what caps the root. *)
let test_attainability_leaf_capped () =
  let text =
    {|goal G0 "claim" all
  evidence E1 "a" 0.5
  evidence E2 "b" 0.5
|}
  in
  let options =
    {
      A.default_options with
      target = Some 0.9;
      leaf_bounds = Some (fun _ -> (0.1, 0.6));
    }
  in
  let diags = A.case ~options text in
  check_true "C013 fires from leaf bounds alone"
    (List.mem "C013" (codes diags));
  check_true "no C015: assumptions are not to blame"
    (not (List.mem "C015" (codes diags)))

let test_vacuity_goldens () =
  (* Certainty saturates a disjunction: the 0.5 leg can never move the
     goal's value (1.0) or its interval ([0,1] -> unchanged by removal). *)
  let saturated =
    G.of_node
      (N.goal ~id:"r" ~statement:"root" ~combinator:N.Any
         [ N.evidence ~id:"sure" ~statement:"a" ~confidence:1.0;
           N.evidence ~id:"weak" ~statement:"b" ~confidence:0.5 ])
  in
  let diags = A.graph ~options:{ A.default_options with structural = false } saturated in
  Alcotest.(check int) "exactly one vacuous leg" 1 (count_code "C014" diags);
  (* Under the Frechet lower bound a disjunction is max: the dominated
     leg is vacuous there, but not under independence. *)
  let dominated =
    G.of_node
      (N.goal ~id:"r" ~statement:"root" ~combinator:N.Any
         [ N.evidence ~id:"strong" ~statement:"a" ~confidence:0.9;
           N.evidence ~id:"weak" ~statement:"b" ~confidence:0.5 ])
  in
  let no_struct dep =
    { A.default_options with structural = false; dependence = dep }
  in
  Alcotest.(check int) "dominated leg vacuous under frechet-lower" 1
    (count_code "C014"
       (A.graph ~options:(no_struct G.Frechet_lower) dominated));
  Alcotest.(check int) "but not under independence" 0
    (count_code "C014"
       (A.graph ~options:(no_struct G.Independent) dominated));
  (* A conjunction of non-certain legs has no vacuous leg. *)
  let conj =
    G.of_node
      (N.goal ~id:"r" ~statement:"root" ~combinator:N.All
         [ N.evidence ~id:"e1" ~statement:"a" ~confidence:0.9;
           N.evidence ~id:"e2" ~statement:"b" ~confidence:0.8 ])
  in
  Alcotest.(check int) "no vacuous leg in a live conjunction" 0
    (count_code "C014"
       (A.graph ~options:{ A.default_options with structural = false } conj))

let test_spof_diagnostic_payload () =
  let diags =
    A.case ~options:{ A.default_options with target = Some 0.9 }
      unattainable_text
  in
  let c016 = List.filter (fun (d : D.t) -> d.code = "C016") diags in
  Alcotest.(check int) "both leaves of the conjunctive root are SPOFs" 2
    (List.length c016);
  List.iter
    (fun (d : D.t) ->
      check_true "payload carries parent_count"
        (List.mem_assoc "parent_count" d.data);
      check_true "payload carries sensitivity"
        (List.mem_assoc "sensitivity" d.data);
      (* d(root)/d(leaf) for value*0.95*0.8 resp. value*0.9*0.8. *)
      let s = List.assoc "sensitivity" d.data in
      check_true "sensitivity is a positive finite slope"
        (Float.is_finite s && s > 0.5 && s < 1.0))
    c016

let test_emitter_cap () =
  (* 30 leaves under one conjunctive root: 30 SPOFs, capped at 20 with
     one info summary counting the 10 suppressed. *)
  let b = G.Builder.create () in
  let leaves =
    Array.init 30 (fun i ->
        G.Builder.evidence b ~id:(Printf.sprintf "e%d" i) ~confidence:0.9 ())
  in
  let r = G.Builder.goal b ~id:"r" ~combinator:N.All leaves in
  let g = G.Builder.build b ~root:r in
  let diags = A.graph g in
  (* The info summary reuses the code, so count warnings only. *)
  let c016_warnings =
    List.length
      (List.filter
         (fun (d : D.t) -> d.code = "C016" && d.severity = D.Warning)
         diags)
  in
  Alcotest.(check int) "C016 capped at 20" 20 c016_warnings;
  let summaries =
    List.filter
      (fun (d : D.t) ->
        d.severity = D.Info && List.mem_assoc "suppressed" d.data)
      diags
  in
  Alcotest.(check int) "one suppression summary" 1 (List.length summaries);
  check_close "10 findings suppressed" 10.0
    (List.assoc "suppressed" (List.hd summaries).data);
  let loose = A.graph ~options:{ A.default_options with max_per_code = 40 } g in
  Alcotest.(check int) "uncapped when the cap is raised" 30
    (count_code "C016" loose)

let test_structural_csr_lint () =
  (* The re-implemented structural rules on a raw graph: single-child
     goal (C005), fan-out (C008), shared evidence under an `any` (C009). *)
  let b = G.Builder.create () in
  let s = G.Builder.evidence b ~id:"shared" ~confidence:0.9 () in
  let wide =
    Array.init 11 (fun i ->
        G.Builder.evidence b ~id:(Printf.sprintf "w%d" i) ~confidence:0.9 ())
  in
  let l1 = G.Builder.goal b ~id:"l1" ~combinator:N.All [| s |] in
  let l2 = G.Builder.goal b ~id:"l2" ~combinator:N.All (Array.append [| s |] wide) in
  let r = G.Builder.goal b ~id:"r" ~combinator:N.Any [| l1; l2 |] in
  let g = G.Builder.build b ~root:r in
  let diags = A.lint g in
  check_true "C005 on the single-child goal" (List.mem "C005" (codes diags));
  check_true "C008 on the 12-wide goal" (List.mem "C008" (codes diags));
  check_true "C009 on the shared-evidence any" (List.mem "C009" (codes diags));
  let c009 = List.find (fun (d : D.t) -> d.code = "C009") diags in
  check_true "C009 carries the overlap fraction"
    (List.assoc "overlap_fraction" c009.data > 0.0)

let test_rho_monotonicity () =
  let tree combinator =
    N.goal ~id:"r" ~statement:"root" ~combinator
      [ N.evidence ~id:"e1" ~statement:"a" ~confidence:0.6;
        N.evidence ~id:"e2" ~statement:"b" ~confidence:0.7;
        N.evidence ~id:"e3" ~statement:"c" ~confidence:0.8 ]
  in
  let values combinator =
    let g = G.of_node (tree combinator) in
    List.map (fun rho -> G.propagate (G.Correlated rho) g)
      [ 0.0; 0.25; 0.5; 0.75; 1.0 ]
  in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  (* All blends the product toward min (como >= ind), Any blends the
     noisy-or toward max (como <= ind): monotone in rho, opposite ways. *)
  check_true "conjunction value nondecreasing in rho"
    (nondecreasing (values N.All));
  check_true "disjunction value nonincreasing in rho"
    (nondecreasing (List.rev (values N.Any)));
  (* And the interval endpoints inherit the monotonicity. *)
  let g = G.of_node (tree N.All) in
  let his =
    List.map
      (fun rho ->
        let _, hi = G.propagate_bounds ~leaf_bounds:(fun i -> (0.0, G.base_confidence g i)) (G.Correlated rho) g in
        Columns.get hi (G.root g))
      [ 0.0; 0.5; 1.0 ]
  in
  check_true "upper endpoint nondecreasing in rho for a conjunction"
    (nondecreasing his)

(* The shipped fixture: structurally clean, semantically unattainable. *)
let read_file path =
  let path = if Sys.file_exists path then path else Filename.concat ".." path in
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  text

let test_unattainable_fixture () =
  let text = read_file "examples/unattainable.case" in
  check_true "fixture is clean under the structural checker"
    (Analysis.Case_rules.check text = []);
  let diags =
    A.case ~file:"examples/unattainable.case"
      ~options:{ A.default_options with target = Some 0.9 }
      text
  in
  check_true "C013 fires on the fixture" (List.mem "C013" (codes diags));
  Alcotest.(check int) "and exits 2" 2 (D.exit_code diags);
  List.iter
    (fun (d : D.t) ->
      Alcotest.(check (option string)) "every diagnostic carries the path"
        (Some "examples/unattainable.case") d.file)
    diags

let suite =
  [ case "bounds validation and audit options" test_bounds_validation;
    case "SPOF goldens (conjunction, legs, shared DAG)" test_spof_goldens;
    case "attainability goldens (C013/C015)" test_attainability_goldens;
    case "C013 from leaf bounds alone" test_attainability_leaf_capped;
    case "vacuous legs (C014)" test_vacuity_goldens;
    case "SPOF diagnostics carry payloads (C016)" test_spof_diagnostic_payload;
    case "per-code cap and suppression summary" test_emitter_cap;
    case "structural rules as CSR sweeps" test_structural_csr_lint;
    case "correlated blend monotone in rho" test_rho_monotonicity;
    case "unattainable.case fixture" test_unattainable_fixture;
    test_bounds_soundness_property;
    test_bounds_soundness_generated;
    test_custom_leaf_bounds_property;
    test_spof_brute_force_property;
    test_spof_brute_force_dag;
    test_spof_oracle ]
