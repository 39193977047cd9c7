(* Shared assertions for the test suites. *)

let check_close ?(eps = 1e-9) name expected actual =
  let scale = max 1.0 (abs_float expected) in
  if abs_float (expected -. actual) > eps *. scale then
    Alcotest.failf "%s: expected %.12g, got %.12g (eps %g)" name expected
      actual eps

let check_in_range name ~lo ~hi actual =
  if actual < lo || actual > hi then
    Alcotest.failf "%s: %.12g outside [%.12g, %.12g]" name actual lo hi

let check_true name cond = Alcotest.(check bool) name true cond

let check_raises_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let case name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

let rng_of_seed seed = Numerics.Rng.create seed

(* A random case tree with unique ids ("n0", "n1", ...; assumptions
   "a0", "a1", ...), driven by one deterministic Rng so every qcheck
   counterexample is a reproducible (seed, depth) pair.  The root is
   always a goal, so edits always have an ancestor to dirty. *)
let random_tree rng ~depth =
  let module N = Casekit.Node in
  let next = ref 0 and anext = ref 0 in
  let fresh p r =
    let i = !r in
    incr r;
    Printf.sprintf "%s%d" p i
  in
  let rec build d =
    if d = 0 || Numerics.Rng.bernoulli rng 0.3 then
      N.evidence ~id:(fresh "n" next) ~statement:"leaf"
        ~confidence:(Numerics.Rng.uniform rng 0.05 0.999)
    else begin
      let n = 1 + Numerics.Rng.int rng 4 in
      let kids = ref [] in
      for _ = 1 to n do
        kids := build (d - 1) :: !kids
      done;
      let combinator = if Numerics.Rng.bernoulli rng 0.3 then N.Any else N.All in
      let assumptions =
        if Numerics.Rng.bernoulli rng 0.3 then
          [ N.assumption ~id:(fresh "a" anext) ~statement:"assume"
              ~p_valid:(Numerics.Rng.uniform rng 0.5 0.999) ]
        else []
      in
      N.goal ~id:(fresh "n" next) ~statement:"goal" ~combinator ~assumptions
        (List.rev !kids)
    end
  in
  let child = build depth in
  N.goal ~id:(fresh "n" next) ~statement:"root" [ child ]

let gen_seed_depth = QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 4))
