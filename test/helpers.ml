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

(* A sample for sort checks: [n] values in [0,1] with ties (a few
   repeated values, [0.] and [1.]), and NaNs when [nans].  No [-0.]: it
   compares equal to [0.], so two correct sorts may order the pair
   differently. *)
let tied_sample ?(nans = false) rng n =
  let pool = Array.init 4 (fun _ -> Numerics.Rng.float rng) in
  Array.init n (fun _ ->
      match Numerics.Rng.int rng 8 with
      | 0 | 1 -> pool.(Numerics.Rng.int rng 4)
      | 2 -> 0.0
      | 3 -> 1.0
      | 4 when nans -> Float.nan
      | _ -> Numerics.Rng.float rng)

(* The reference sort: a sorted copy by the stdlib's polymorphic sort. *)
let sorted_copy xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

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

(* Hostile input for the hand-written parsers: arbitrary bytes, or one to
   three mutations of a valid fixture — truncation, a flipped byte, a
   duplicated line, or a NaN/overflow/underflow literal spliced in. *)
let gen_hostile_text fixtures =
  let open QCheck2.Gen in
  let literals = [ "NaN"; "nan"; "-nan"; "inf"; "1e309"; "-1e309"; "1e-400"; "0x1p3"; "" ] in
  let mutation text =
    let n = String.length text in
    let* op = int_bound 3 and* pos = int_bound n and* byte = int_range 1 255 in
    let* lit = oneofl literals in
    pure
      (match op with
      | 0 -> String.sub text 0 pos
      | 1 when n > 0 ->
        let b = Bytes.of_string text in
        let i = min pos (n - 1) in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor byte));
        Bytes.to_string b
      | 2 ->
        let lines = String.split_on_char '\n' text in
        let k = pos mod List.length lines in
        List.concat_map (fun (i, l) -> if i = k then [ l; l ] else [ l ])
          (List.mapi (fun i l -> (i, l)) lines)
        |> String.concat "\n"
      | _ -> String.sub text 0 pos ^ lit ^ String.sub text pos (n - pos))
  in
  let mutated =
    let* base = oneofl fixtures and* rounds = int_range 1 3 in
    let rec go text k = if k = 0 then pure text else mutation text >>= fun t -> go t (k - 1) in
    go base rounds
  in
  frequency [ (1, string_size (int_bound 64)); (4, mutated) ]

(* [total_parser ~parses ~expected text] — a qcheck predicate: [parses text]
   returns a value or raises the parser's own error; anything else fails. *)
let total_parser ~parses ~expected text =
  match parses text with
  | _ -> true
  | exception e when expected e -> true
  | exception e ->
    QCheck2.Test.fail_reportf "uncaught %s" (Printexc.to_string e)

(* 10^6 unclosed and then balanced brackets: deep nesting must end in a
   value or the parser's error, never a stack overflow. *)
let deep_brackets = String.make 1_000_000 '['

let deep_balanced = deep_brackets ^ String.make 1_000_000 ']'
