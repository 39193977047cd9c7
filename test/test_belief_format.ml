open Helpers
module F = Elicit.Belief_format
module M = Dist.Mixture

let sample =
  "# belief about the SIS pfd\n\natom 0 0.05\nlognormal mode 3e-3 sigma 0.9 \
   weight 0.95\n"

let test_parse_basic () =
  let b = F.parse sample in
  check_close "perfection atom" 0.05 (M.atom_weight b 0.0);
  check_close ~eps:1e-9 "mean" (0.95 *. (Dist.Lognormal.of_mode_sigma ~mode:3e-3 ~sigma:0.9).Dist.mean)
    (M.mean b)

let test_implicit_weight () =
  (* One weightless component takes the remaining mass. *)
  let b = F.parse "atom 0 0.3\nbeta a 2 b 30\n" in
  check_close "atom weight" 0.3 (M.atom_weight b 0.0);
  check_close ~eps:1e-9 "remaining mass on the beta" (0.7 *. (2.0 /. 32.0))
    (M.mean b);
  (* A single component needs no weight at all. *)
  let single = F.parse "lognormal mu -5 sigma 0.8\n" in
  check_close ~eps:1e-9 "full mass" 1.0 (M.prob_le single 1.0)

let test_all_families () =
  let b =
    F.parse
      "atom 0.5 0.2\nlognormal mu -5 sigma 0.5 weight 0.2\ngamma shape 2 \
       rate 100 weight 0.2\nbeta a 1 b 9 weight 0.2\nuniform lo 0 hi 0.1 \
       weight 0.2"
  in
  Alcotest.(check int) "five components" 5 (List.length (M.components b));
  check_close ~eps:1e-9 "mean adds up"
    ((0.2 *. 0.5)
    +. (0.2 *. exp (-5.0 +. 0.125))
    +. (0.2 *. 0.02)
    +. (0.2 *. 0.1)
    +. (0.2 *. 0.05))
    (M.mean b)

let expect_error ~line text =
  match F.parse text with
  | exception F.Parse_error e -> Alcotest.(check int) "error line" line e.line
  | _ -> Alcotest.fail "expected Parse_error"

let test_errors () =
  expect_error ~line:0 "";
  expect_error ~line:1 "atom";
  expect_error ~line:1 "atom x";
  expect_error ~line:1 "wobble mu 1 sigma 2";
  expect_error ~line:1 "lognormal sigma 0.5";
  expect_error ~line:1 "lognormal mode 1e-3 mu -5 sigma 0.5";
  expect_error ~line:1 "lognormal mode 1e-3 sigma 0.5 weight";
  expect_error ~line:2 "atom 0 0.5\natom 1 weight x";
  (* Two weightless components are ambiguous. *)
  expect_error ~line:1 "atom 0\natom 1";
  (* Weights already saturated. *)
  expect_error ~line:1 "atom 0 1.0\nbeta a 2 b 2";
  (* Invalid parameters surface with the line number. *)
  expect_error ~line:1 "gamma shape 0 rate 1 weight 1";
  (* Weights must sum to 1. *)
  expect_error ~line:1 "atom 0 0.4\natom 1 weight 0.4"

let test_roundtrip () =
  let b = F.parse sample in
  let b2 = F.parse (F.print b) in
  (* print recovers parameters from %g-rendered names: ~6 significant
     digits survive the roundtrip. *)
  check_close ~eps:1e-5 "mean preserved" (M.mean b) (M.mean b2);
  check_close ~eps:1e-12 "atom preserved" (M.atom_weight b 0.0)
    (M.atom_weight b2 0.0);
  let families =
    F.parse
      "gamma shape 2 rate 100 weight 0.5\nbeta a 1 b 9 weight 0.3\nuniform \
       lo 0 hi 0.1 weight 0.2"
  in
  let round = F.parse (F.print families) in
  check_close ~eps:1e-12 "families roundtrip (mean)" (M.mean families)
    (M.mean round);
  check_close ~eps:1e-12 "families roundtrip (cdf)" (M.prob_le families 0.03)
    (M.prob_le round 0.03)

let test_print_foreign_rejected () =
  let grid = Numerics.Interp.linspace 0.0 1.0 32 in
  let d, _ = Dist.of_grid_pdf ~name:"custom" ~grid ~pdf:(fun _ -> 1.0) () in
  check_raises_invalid "foreign component" (fun () ->
      ignore (F.print (M.of_dist d)))

let belief_fixtures =
  [ "# belief about the SIS pfd\natom 0 0.05\nlognormal mode 3e-3 sigma 0.9 weight 0.95\n";
    "lognormal mu -6 sigma 1.2\n";
    "gamma shape 2 rate 1e6 weight 0.5\nbeta a 1.5 b 100 weight 0.25\n\
     uniform lo 0 hi 1e-2 weight 0.25\n";
    "atom 1e-3 weight 0.1\nlognormal mode 1e-4 sigma 0.5\n" ]

let belief_total =
  total_parser ~parses:Elicit.Belief_format.parse ~expected:(function
    | Elicit.Belief_format.Parse_error _ -> true
    | _ -> false)

let test_hostile_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:3000 ~name:"belief parse is total on hostile bytes"
       ~print:(Printf.sprintf "%S") (gen_hostile_text belief_fixtures) belief_total)

let test_deep_brackets () =
  check_true "10^6 open brackets" (belief_total deep_brackets);
  check_true "10^6 balanced brackets" (belief_total deep_balanced)

let suite =
  [ case "basic parsing" test_parse_basic;
    case "implicit weights" test_implicit_weight;
    case "all families" test_all_families;
    case "error reporting" test_errors;
    case "print/parse roundtrip" test_roundtrip;
    case "foreign components rejected on print" test_print_foreign_rejected;
    case "bracket runs of 10^6 bytes" test_deep_brackets;
    test_hostile_property ]
