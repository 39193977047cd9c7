open Helpers
module G = Casekit.Graph
module N = Casekit.Node

(* Root value of one goal over evidence leaves with the given
   confidences. *)
let one_goal ?(combinator = N.All) dep confidences =
  let b = G.Builder.create () in
  let kids =
    Array.of_list
      (List.map (fun c -> G.Builder.evidence b ~confidence:c ()) confidences)
  in
  G.propagate dep
    (G.Builder.build b ~root:(G.Builder.goal b ~combinator kids))

let test_and_combinators () =
  let cs = [ 0.9; 0.8 ] in
  check_close ~eps:1e-12 "independent" 0.72 (one_goal G.Independent cs);
  check_close ~eps:1e-12 "frechet lower" 0.7 (one_goal G.Frechet_lower cs);
  check_close ~eps:1e-12 "frechet upper (comonotone)" 0.8
    (one_goal G.Frechet_upper cs);
  check_close ~eps:1e-12 "correlated 0 = independent" 0.72
    (one_goal (G.Correlated 0.0) cs);
  check_close ~eps:1e-12 "correlated 1 = comonotone" 0.8
    (one_goal (G.Correlated 1.0) cs);
  check_close ~eps:1e-12 "correlated 0.5 blends" 0.76
    (one_goal (G.Correlated 0.5) cs);
  (* Deep lower bound clips at 0. *)
  check_close "lower clipped" 0.0 (one_goal G.Frechet_lower [ 0.5; 0.5; 0.5 ])

let test_or_combinators () =
  let any = one_goal ~combinator:N.Any in
  let cs = [ 0.3; 0.4 ] in
  check_close ~eps:1e-12 "independent" (1.0 -. (0.7 *. 0.6)) (any G.Independent cs);
  check_close ~eps:1e-12 "frechet lower (max)" 0.4 (any G.Frechet_lower cs);
  check_close ~eps:1e-12 "frechet upper (sum)" 0.7 (any G.Frechet_upper cs);
  check_close "upper clipped at 1" 1.0 (any G.Frechet_upper [ 0.8; 0.9 ])

let test_validation () =
  check_raises_invalid "confidence above 1" (fun () ->
      ignore (one_goal G.Independent [ 1.5 ]));
  check_raises_invalid "rho out of range" (fun () ->
      ignore (one_goal (G.Correlated 1.5) [ 0.5 ]))

let case_tree () =
  G.of_node
    (N.goal ~id:"G" ~statement:"claim"
       ~assumptions:[ N.assumption ~id:"A" ~statement:"env" ~p_valid:0.95 ]
       [ N.evidence ~id:"E1" ~statement:"test" ~confidence:0.9;
         N.evidence ~id:"E2" ~statement:"analysis" ~confidence:0.8 ])

let test_tree_confidence () =
  let g = case_tree () in
  let v = G.propagate G.Independent g in
  check_close ~eps:1e-12 "independent AND with assumption" (0.9 *. 0.8 *. 0.95) v;
  let lo = G.propagate G.Frechet_lower g in
  let hi = G.propagate G.Frechet_upper g in
  check_close ~eps:1e-12 "lower" (0.7 *. 0.95) lo;
  check_close ~eps:1e-12 "upper" (0.8 *. 0.95) hi;
  check_true "independent within bounds" (lo <= v && v <= hi)

let test_or_tree () =
  let any = one_goal ~combinator:N.Any in
  check_close ~eps:1e-12 "two legs independent" 0.98
    (any G.Independent [ 0.9; 0.8 ]);
  check_close ~eps:1e-12 "two legs fully dependent" 0.9
    (any (G.Correlated 1.0) [ 0.9; 0.8 ])

let test_sensitivity () =
  let g = case_tree () in
  let s = List.map (fun rho -> G.propagate (G.Correlated rho) g) [ 0.0; 0.5; 1.0 ] in
  (* For AND of positively dependent supports, higher rho helps. *)
  check_true "monotone in rho" (List.sort Float.compare s = s)

let test_frechet_envelope_property =
  let gen =
    QCheck2.Gen.(
      pair
        (list_size (int_range 2 5)
           (map (fun u -> 0.05 +. (0.9 *. u)) (float_bound_inclusive 1.0)))
        (float_bound_inclusive 1.0))
  in
  qcheck "correlated AND lies inside the Frechet envelope" gen
    (fun (cs, rho) ->
      let v = one_goal (G.Correlated rho) cs in
      one_goal G.Frechet_lower cs -. 1e-12 <= v
      && v <= one_goal G.Frechet_upper cs +. 1e-12)

let test_what_if () =
  let g = case_tree () in
  let e1 = Option.get (G.find g "E1") in
  G.set_evidence g e1 0.99;
  check_close ~eps:1e-12 "updated confidence"
    (0.99 *. 0.8 *. 0.95)
    (G.refresh G.Independent g);
  G.set_evidence g e1 0.9;
  check_close ~eps:1e-12 "edit reverted"
    (0.9 *. 0.8 *. 0.95)
    (G.refresh G.Independent g);
  check_true "unknown id" (G.find g "missing" = None);
  match G.set_assumption g ~id:"missing" ~p_valid:0.5 with
  | exception Not_found -> ()
  | () -> Alcotest.fail "expected Not_found"

let test_leaf_sensitivities () =
  let sens = G.leaf_sensitivities G.Independent (case_tree ()) in
  Alcotest.(check int) "one entry per leaf" 2 (List.length sens);
  (* For an independent AND, d(root)/d(E1) = conf(E2) * assumption factor. *)
  check_close ~eps:1e-6 "E1 sensitivity" (0.8 *. 0.95) (List.assoc "E1" sens);
  check_close ~eps:1e-6 "E2 sensitivity" (0.9 *. 0.95) (List.assoc "E2" sens);
  (* In an OR of strong legs, each leg's sensitivity is small. *)
  let or_tree =
    G.of_node
      (N.goal ~id:"G" ~statement:"claim" ~combinator:N.Any
         [ N.evidence ~id:"L1" ~statement:"a" ~confidence:0.99;
           N.evidence ~id:"L2" ~statement:"b" ~confidence:0.99 ])
  in
  List.iter
    (fun (_, s) -> check_in_range "redundant legs matter little" ~lo:0.0 ~hi:0.02 s)
    (G.leaf_sensitivities G.Independent or_tree)

let test_assumption_sensitivities () =
  let sens = G.assumption_sensitivities G.Independent (case_tree ()) in
  Alcotest.(check int) "one entry" 1 (List.length sens);
  (* d(root)/d(p_valid) = AND of children = 0.72. *)
  check_close ~eps:1e-6 "assumption sensitivity" 0.72 (List.assoc "A" sens)

let test_dependence_of_string () =
  let accepts s expected =
    match G.dependence_of_string s with
    | Some d ->
      check_true ("accepts " ^ s) (G.dependence_hash d = G.dependence_hash expected)
    | None -> Alcotest.failf "rejected %S" s
  in
  accepts "independent" G.Independent;
  accepts "frechet-lower" G.Frechet_lower;
  accepts "frechet-upper" G.Frechet_upper;
  accepts "0" (G.Correlated 0.0);
  accepts "1" (G.Correlated 1.0);
  accepts "0.37" (G.Correlated 0.37);
  List.iter
    (fun s -> check_true ("rejects " ^ s) (G.dependence_of_string s = None))
    [ "1.5"; "-0.1"; "nan"; ""; "Independent" ]

let suite =
  [ case "AND combinators" test_and_combinators;
    case "what-if edits" test_what_if;
    case "leaf sensitivities" test_leaf_sensitivities;
    case "assumption sensitivities" test_assumption_sensitivities;
    case "OR combinators" test_or_combinators;
    case "input validation" test_validation;
    case "tree confidence with assumptions" test_tree_confidence;
    case "alternative legs (OR) tree" test_or_tree;
    case "dependence sensitivity" test_sensitivity;
    case "dependence model parser" test_dependence_of_string;
    test_frechet_envelope_property ]
