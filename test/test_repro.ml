open Helpers

(* Smoke + checkpoint tests over the reproduction registry: every generator
   must run and its output must contain the paper's anchor numbers. *)

let contains haystack needle =
  let n = String.length needle in
  let rec scan i =
    if i + n > String.length haystack then false
    else if String.sub haystack i n = needle then true
    else scan (i + 1)
  in
  scan 0

let expect_fragments id fragments () =
  let out = Repro.Experiments.run_one id in
  check_true "non-trivial output" (String.length out > 200);
  List.iter
    (fun fragment ->
      if not (contains out fragment) then
        Alcotest.failf "[%s] output lacks %S" id fragment)
    fragments

let test_registry_complete () =
  Alcotest.(check int) "17 experiments" 17 (List.length Repro.Experiments.all);
  Alcotest.(check int) "5 ablations" 5 (List.length Repro.Ablations.all);
  (* Ids unique. *)
  let ids = List.map (fun (i, _, _) -> i) Repro.Experiments.all in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  match Repro.Experiments.run_one "nope" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_paper_constants () =
  check_close "mode" 3e-3 Repro.Paper.mode;
  check_close "sil2 bound" 1e-2 Repro.Paper.sil2_bound;
  Alcotest.(check int) "three figure-1 curves" 3
    (List.length (Repro.Paper.figure1_beliefs ()));
  (* Sigmas are increasing with the stated means. *)
  let sigmas = Repro.Paper.figure1_sigmas () in
  check_true "sigmas increasing" (sigmas.(0) < sigmas.(1) && sigmas.(1) < sigmas.(2))

let test_csv_exports () =
  let exports = Repro.Experiments.csv_exports () in
  Alcotest.(check int) "nine files" 9 (List.length exports);
  List.iter
    (fun (name, content) ->
      check_true (name ^ " has a header line") (String.contains content '\n');
      check_true (name ^ " non-trivial") (String.length content > 100);
      check_true (name ^ " ends with .csv")
        (Filename.check_suffix name ".csv"))
    exports;
  (* Distinct file names. *)
  let names = List.map fst exports in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_ablations_run () =
  List.iter
    (fun (id, _, f) ->
      let out = f () in
      if String.length out < 100 then Alcotest.failf "[%s] trivial output" id)
    Repro.Ablations.all

(* MD5 of each Monte-Carlo figure's full output, recorded from the
   [Array.sort]-flushing sketch and the array-per-pass grid posteriors
   that the unboxed kernels replaced.  Every figure must hash the same on
   a 1-domain and a 2-domain pool, and match its recorded digest. *)
let recorded_digests =
  [ ("conservative", "4e25843507c2af135761e9a010a8b3bf");
    ("figure5", "c7aef6f98672678bfafd5626b0bc12d9");
    ("tailcut", "890d78eeb6cfe373974a16418667fb63");
    ("decisions", "0e7f3caa6326e4f0617f63f7696ee5cd");
    ("vr", "600a31557383b2cc5f1d0eb43dab5d05") ]

let test_figure_digests () =
  let digests num_domains =
    Numerics.Parallel.with_pool ~num_domains (fun pool ->
        List.map
          (fun (id, _) ->
            Digest.to_hex (Digest.string (Repro.Experiments.run_one ~pool id)))
          recorded_digests)
  in
  let one = digests 1 and two = digests 2 in
  List.iteri
    (fun i (id, recorded) ->
      Alcotest.(check string) (id ^ ": 1 domain = 2 domains") (List.nth one i)
        (List.nth two i);
      Alcotest.(check string) (id ^ ": recorded digest") recorded
        (List.nth one i))
    recorded_digests

let suite =
  [ case "registry completeness" test_registry_complete;
    case "paper constants" test_paper_constants;
    case "table1 checkpoints"
      (expect_fragments "table1" [ "SIL4"; "1e-05"; "1e-09" ]);
    case "figure1 checkpoints"
      (expect_fragments "figure1" [ "P(SIL2+)=0.6729"; "mean=0.01" ]);
    case "figure3 checkpoints"
      (expect_fragments "figure3" [ "67.3%"; "about 67%" ]);
    case "figure4 checkpoints"
      (expect_fragments "figure4" [ "67.3% chance of SIL2"; "99.87%" ]);
    case "figure5 checkpoints"
      (expect_fragments "figure5"
         [ "doubter"; "SIL2/SIL1 boundary"; "QMC variant" ]);
    case "conservative checkpoints"
      (expect_fragments "conservative"
         [ "0.999100"; "infeasible"; "Monte-Carlo check";
           "Importance-sampled doubt masses"; "x* = 9e-4" ]);
    case "standards checkpoints"
      (expect_fragments "standards" [ "0.9910"; "no quantified claim" ]);
    case "tailcut checkpoints"
      (expect_fragments "tailcut"
         [ "SIL2"; "P(survive n)"; "Importance-sampled tail masses";
           "agreement within stated CIs" ]);
    case "variance-reduction checkpoints"
      (expect_fragments "vr"
         [ "Estimates of P(pfd > y)"; "no hits";
           "Samples to reach 10% relative standard error" ]);
    case "mtbf checkpoints"
      (expect_fragments "mtbf" [ "tight at t = 1/phi" ]);
    case "Monte-Carlo figures byte-identical" test_figure_digests;
    case "csv exports" test_csv_exports;
    case "ablations run" test_ablations_run ]
