open Helpers
module F = Casekit.Case_format
module N = Casekit.Node

let sample_text =
  {|# A two-leg case
goal G0 "Shutdown system pfd < 1e-3" any
  assume A0 "Demand profile is right" 0.97
  goal G1 "Testing leg" all
    evidence E1 "4600 failure-free demands" 0.99
    evidence E2 "Oracle validated" 0.97
  evidence E3 "Static analysis clean" 0.9
|}

let test_parse_structure () =
  let case = F.parse sample_text in
  Alcotest.(check string) "root id" "G0" (N.id case);
  Alcotest.(check int) "size" 5 (N.size case);
  Alcotest.(check int) "depth" 3 (N.depth case);
  (match case with
  | N.Goal g ->
    check_true "combinator any" (g.combinator = N.Any);
    Alcotest.(check int) "one assumption" 1 (List.length g.assumptions);
    check_close "assumption p" 0.97 (List.hd g.assumptions).N.p_valid
  | N.Evidence _ -> Alcotest.fail "expected a goal");
  match N.find case ~id:"E2" with
  | Some (N.Evidence e) -> check_close "nested evidence conf" 0.97 e.confidence
  | _ -> Alcotest.fail "E2 not found"

let test_parse_confidence_used () =
  let case = F.parse sample_text in
  (* ANY(ALL(0.99, 0.97), 0.9) * 0.97. *)
  let expected =
    (1.0 -. ((1.0 -. (0.99 *. 0.97)) *. (1.0 -. 0.9))) *. 0.97
  in
  check_close ~eps:1e-12 "propagated confidence" expected
    (Case_oracle.confidence Casekit.Graph.Independent case)

let test_roundtrip () =
  let case = F.parse sample_text in
  let reparsed = F.parse (F.print case) in
  check_true "roundtrip is identity" (case = reparsed)

let expect_error ~line text =
  match F.parse text with
  | exception F.Parse_error e ->
    Alcotest.(check int) "error line" line e.line
  | _ -> Alcotest.fail "expected Parse_error"

let test_errors () =
  expect_error ~line:0 "";
  expect_error ~line:1 "evidence E1 \"x\"";
  expect_error ~line:1 "goal G \"g\" maybe";
  expect_error ~line:1 "widget W \"x\" 0.5";
  expect_error ~line:1 "  goal G \"indented root\" all";
  expect_error ~line:1 "assume A \"root assumption\" 0.5";
  expect_error ~line:2 "goal G \"g\" all\n    evidence E \"jump two levels\" 0.9";
  expect_error ~line:1 "goal G \"unterminated statement all";
  (* Out-of-range confidence propagates the Node validation. *)
  expect_error ~line:2 "goal G \"g\" all\n  evidence E \"bad\" 1.5";
  (* Duplicate ids caught by validation (reported via Invalid_argument). *)
  (match
     F.parse "goal G \"g\" all\n  evidence E \"a\" 0.9\n  evidence E \"b\" 0.9"
   with
  | exception Invalid_argument _ -> ()
  | exception F.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected duplicate-id failure");
  (* Two roots. *)
  expect_error ~line:3
    "goal G \"g\" all\n  evidence E \"a\" 0.9\ngoal H \"h\" all"

let test_comments_and_blanks () =
  let text =
    "# leading comment\n\ngoal G \"g\" all\n\n  # nested comment\n  evidence \
     E \"a\" 0.9\n"
  in
  let case = F.parse text in
  Alcotest.(check int) "size" 2 (N.size case)

let test_evidence_root () =
  let case = F.parse "evidence E \"standalone\" 0.8\n" in
  (match case with
  | N.Evidence e -> check_close "conf" 0.8 e.confidence
  | N.Goal _ -> Alcotest.fail "expected evidence root");
  check_true "roundtrip" (F.parse (F.print case) = case)

(* Documents [parse] could not read back are refused, naming the node. *)
let test_print_refuses () =
  let refuses what node needle =
    match F.print node with
    | exception Invalid_argument msg ->
      if not (contains_substring msg needle) then
        Alcotest.failf "%s: message %S does not name %S" what msg needle
    | text -> Alcotest.failf "%s: printed %S" what text
  in
  let ev ?(id = "E") statement = N.evidence ~id ~statement ~confidence:0.9 in
  refuses "quote in statement" (ev "say \"hi\"") "E";
  refuses "line break in statement" (ev "two\nlines") "E";
  refuses "carriage return in statement" (ev "two\rlines") "E";
  refuses "empty id" (ev ~id:"" "fine") "\"\"";
  refuses "id with a space" (ev ~id:"E 1" "fine") "E 1";
  refuses "id with a tab" (ev ~id:"E\t1" "fine") "E\\t1";
  refuses "nested goal statement"
    (N.goal ~id:"G" ~statement:"g" [ N.goal ~id:"H" ~statement:"a \"b\"" [ ev "e" ] ])
    "H";
  refuses "assumption id"
    (N.goal ~id:"G" ~statement:"g"
       ~assumptions:[ N.assumption ~id:"A 1" ~statement:"a" ~p_valid:0.9 ]
       [ ev "e" ])
    "A 1";
  (* Everything else round-trips, odd characters included. *)
  let odd =
    N.goal ~id:"G#1\"x" ~statement:"  # not a comment \t 'quoted' "
      [ N.evidence ~id:"é" ~statement:"" ~confidence:1.0 ]
  in
  check_true "odd but printable" (F.parse (F.print odd) = odd)

let test_default_combinator () =
  let case = F.parse "goal G \"g\"\n  evidence E \"a\" 0.9\n" in
  match case with
  | N.Goal g -> check_true "defaults to all" (g.combinator = N.All)
  | N.Evidence _ -> Alcotest.fail "expected goal"

(* Random case trees for the roundtrip property. *)
let gen_tree =
  let open QCheck2.Gen in
  let counter = ref 0 in
  let fresh_id prefix =
    incr counter;
    Printf.sprintf "%s%d" prefix !counter
  in
  let conf = map (fun u -> 0.01 +. (0.98 *. u)) (float_bound_inclusive 1.0) in
  let leaf =
    map (fun c -> N.evidence ~id:(fresh_id "E") ~statement:"ev" ~confidence:c) conf
  in
  let rec tree depth =
    if depth = 0 then leaf
    else
      frequency
        [ (1, leaf);
          ( 2,
            let* comb = oneofl [ N.All; N.Any ] in
            let* n_children = int_range 1 3 in
            let* children = list_size (pure n_children) (tree (depth - 1)) in
            let* with_assumption = bool in
            let* p = conf in
            let assumptions =
              if with_assumption then
                [ N.assumption ~id:(fresh_id "A") ~statement:"as" ~p_valid:p ]
              else []
            in
            pure
              (N.goal ~id:(fresh_id "G") ~statement:"goal" ~combinator:comb
                 ~assumptions children) ) ]
  in
  QCheck2.Gen.map (fun t -> (counter := 0; ignore t); t) (tree 3)

let test_roundtrip_property =
  Helpers.qcheck ~count:100 "print/parse roundtrip on random trees" gen_tree
    (fun tree ->
      match F.parse (F.print tree) with
      | reparsed -> reparsed = tree
      | exception F.Parse_error _ -> false
      | exception Invalid_argument _ ->
        (* Ids are unique within a tree by construction; treat any residual
           collision (e.g. under shrinking) as vacuous. *)
        true)

let suite =
  [ case "parse structure" test_parse_structure;
    test_roundtrip_property;
    case "parsed case propagates correctly" test_parse_confidence_used;
    case "print/parse roundtrip" test_roundtrip;
    case "error reporting with line numbers" test_errors;
    case "comments and blank lines" test_comments_and_blanks;
    case "evidence-only case" test_evidence_root;
    case "goal defaults to all" test_default_combinator;
    case "print refuses what parse cannot read" test_print_refuses ]
