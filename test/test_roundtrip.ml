(* Round-trip properties for the two text formats, plus the cross-subsystem
   invariant that the printers never emit documents the static analyser
   rejects: parse (print x) = x, and check (print x) has no errors. *)

open Helpers
module CF = Casekit.Case_format
module BF = Elicit.Belief_format
module N = Casekit.Node
module M = Dist.Mixture
module D = Analysis.Diagnostic

(* --- case documents -------------------------------------------------------- *)

(* Trees with multiple assumptions per goal and both combinators; ids are
   globally fresh by construction. *)
let gen_case_tree =
  let open QCheck2.Gen in
  let counter = ref 0 in
  let fresh prefix =
    incr counter;
    Printf.sprintf "%s%d" prefix !counter
  in
  let conf = map (fun u -> 0.01 +. (0.98 *. u)) (float_bound_inclusive 1.0) in
  let statement =
    map
      (fun i -> Printf.sprintf "statement %d with spaces" i)
      (int_range 0 1000)
  in
  let leaf =
    map2
      (fun c s -> N.evidence ~id:(fresh "E") ~statement:s ~confidence:c)
      conf statement
  in
  let rec tree depth =
    if depth = 0 then leaf
    else
      frequency
        [ (1, leaf);
          ( 3,
            let* comb = oneofl [ N.All; N.Any ] in
            let* children = list_size (int_range 1 3) (tree (depth - 1)) in
            let* n_assumptions = int_range 0 2 in
            let* ps = list_size (pure n_assumptions) conf in
            let assumptions =
              List.map
                (fun p -> N.assumption ~id:(fresh "A") ~statement:"as" ~p_valid:p)
                ps
            in
            pure
              (N.goal ~id:(fresh "G") ~statement:"goal" ~combinator:comb
                 ~assumptions children) ) ]
  in
  tree 4

(* The same shapes with arbitrary printable ids and statements: spaces,
   quotes, line breaks and empty ids all occur.  A counter after the
   last '#' keeps ids distinct, since no digit string contains '#'. *)
let gen_printable_tree =
  let open QCheck2.Gen in
  let counter = ref 0 in
  let text ~excluding =
    string_size ~gen:(map (fun c -> if List.mem c excluding then 'x' else c) printable)
      (int_range 0 8)
  in
  let id =
    frequency
      [ (1, pure "");
        (2, text ~excluding:[]);
        (8, text ~excluding:[ ' '; '\n' ]) ]
    |> map (fun s ->
           if s = "" && !counter mod 3 = 0 then ""
           else (
             incr counter;
             Printf.sprintf "%s#%d" s !counter))
  in
  let statement =
    frequency [ (1, text ~excluding:[]); (6, text ~excluding:[ '"'; '\n' ]) ]
  in
  let conf = map (fun u -> 0.01 +. (0.98 *. u)) (float_bound_inclusive 1.0) in
  let leaf =
    map3 (fun id s c -> N.evidence ~id ~statement:s ~confidence:c) id statement conf
  in
  let assumption =
    map3 (fun id s p -> N.assumption ~id ~statement:s ~p_valid:p) id statement conf
  in
  let rec tree depth =
    if depth = 0 then leaf
    else
      frequency
        [ (1, leaf);
          ( 3,
            let* comb = oneofl [ N.All; N.Any ] in
            let* children = list_size (int_range 1 3) (tree (depth - 1)) in
            let* assumptions = list_size (int_range 0 2) assumption in
            let* id = id and* s = statement in
            pure (N.goal ~id ~statement:s ~combinator:comb ~assumptions children) ) ]
  in
  tree 3

(* What the format can carry: an id is one non-empty word without
   whitespace; a statement holds no quote and no line break. *)
let printable_tree t =
  let blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012' in
  let ok_id id = id <> "" && not (String.exists blank id) in
  let ok_statement s = not (String.exists (fun c -> c = '"' || c = '\n' || c = '\r') s) in
  N.fold
    (fun ok node ->
      ok
      &&
      match node with
      | N.Evidence e -> ok_id e.id && ok_statement e.statement
      | N.Goal g ->
        ok_id g.id && ok_statement g.statement
        && List.for_all (fun (a : N.assumption) -> ok_id a.aid && ok_statement a.a_statement)
             g.assumptions)
    true t

let test_case_roundtrip =
  qcheck ~count:200 "case_format: parse (print t) = t" gen_case_tree (fun t ->
      CF.parse (CF.print t) = t)

let test_case_roundtrip_printable =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"case_format: parse (print t) = t, or print raises"
       ~print:(fun t -> N.render t)
       gen_printable_tree
       (fun t ->
         match CF.print t with
         | exception Invalid_argument _ -> not (printable_tree t)
         | text -> printable_tree t && CF.parse text = t))

let test_case_print_is_clean =
  qcheck ~count:200 "case_format: print t never triggers analysis errors"
    gen_case_tree (fun t ->
      let checked = Analysis.Check.case (CF.print t) in
      checked.value <> None && D.errors checked.diagnostics = 0)

(* --- belief documents ------------------------------------------------------ *)

type comp_spec =
  | Atom of float
  | Logn of float * float
  | Gamma of float * float
  | Beta of float * float
  | Unif of float * float

let component_of_spec = function
  | Atom x -> M.Atom x
  | Logn (mu, sigma) -> M.Cont (Dist.Lognormal.make ~mu ~sigma)
  | Gamma (shape, rate) -> M.Cont (Dist.Gamma_d.make ~shape ~rate)
  | Beta (a, b) -> M.Cont (Dist.Beta_d.make ~a ~b)
  | Unif (lo, hi) -> M.Cont (Dist.Uniform_d.make ~lo ~hi)

let gen_belief =
  let open QCheck2.Gen in
  let range lo hi = map (fun u -> lo +. ((hi -. lo) *. u)) (float_bound_inclusive 1.0) in
  let spec =
    oneof
      [ map (fun x -> Atom x) (range 0.0 1.0);
        map2 (fun mu sigma -> Logn (mu, sigma)) (range (-9.0) (-3.0))
          (range 0.1 2.0);
        map2 (fun shape rate -> Gamma (shape, rate)) (range 0.5 5.0)
          (range 10.0 500.0);
        map2 (fun a b -> Beta (a, b)) (range 0.5 5.0) (range 1.0 30.0);
        map2 (fun lo w -> Unif (lo, lo +. w)) (range 0.0 0.4) (range 0.01 0.5)
      ]
  in
  let* specs = list_size (int_range 1 4) spec in
  let* raw_weights = list_size (pure (List.length specs)) (range 0.1 1.0) in
  let total = List.fold_left ( +. ) 0.0 raw_weights in
  let weights = List.map (fun w -> w /. total) raw_weights in
  pure (M.make (List.combine weights (List.map component_of_spec specs)))

(* print recovers continuous parameters from %g-rendered names (~6
   significant digits), so the round trip preserves the distribution to
   that precision rather than bit-exactly. *)
let close ?(eps = 1e-4) a b = abs_float (a -. b) <= eps *. max 1.0 (abs_float a)

let test_belief_roundtrip =
  qcheck ~count:200 "belief_format: parse (print b) preserves the belief"
    gen_belief (fun b ->
      let b2 = BF.parse (BF.print b) in
      List.length (M.components b2) = List.length (M.components b)
      && close (M.mean b) (M.mean b2)
      && List.for_all
           (fun x -> close (M.prob_le b x) (M.prob_le b2 x))
           [ 1e-4; 1e-3; 1e-2; 0.1; 0.5; 0.99 ])

let test_belief_print_is_clean =
  qcheck ~count:200 "belief_format: print b never triggers analysis errors"
    gen_belief (fun b ->
      let checked = Analysis.Check.belief (BF.print b) in
      checked.value <> None && D.errors checked.diagnostics = 0)

let suite =
  [ test_case_roundtrip;
    test_case_print_is_clean;
    test_belief_roundtrip;
    test_belief_print_is_clean;
    test_case_roundtrip_printable ]
