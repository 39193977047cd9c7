(* Numerics.Decimal against float_of_string: every input must give the
   same bits, or both readers must raise Failure. *)

open Helpers
module Dec = Numerics.Decimal

let outcome f = match f () with v -> Ok (Int64.bits_of_float v) | exception Failure _ -> Error ()

let show = function Ok b -> Printf.sprintf "%Lx" b | Error () -> "Failure"

(* [agree s at len] — the span read in place, and its copy read by the
   stdlib, give the same outcome. *)
let agree s at len =
  let want = outcome (fun () -> float_of_string (String.sub s at len)) in
  let got = outcome (fun () -> Dec.of_span s at len) in
  want = got
  || QCheck2.Test.fail_reportf "%S: float_of_string %s, Decimal %s" (String.sub s at len)
       (show want) (show got)

let agree_string s = agree s 0 (String.length s)

let check_agree s =
  let want = outcome (fun () -> float_of_string s) and got = outcome (fun () -> Dec.of_string s) in
  if want <> got then
    Alcotest.failf "%s: float_of_string %s, Decimal %s"
      (if String.length s > 40 then Printf.sprintf "%d-byte string" (String.length s)
       else Printf.sprintf "%S" s)
      (show want) (show got)

(* Boundary spellings: 2^53 + 1 (a halfway case that rounds to even),
   the largest subnormal and the smallest subnormal, the halfway point
   below the smallest subnormal, the largest double and the first
   spelling past it, a classic Eisel–Lemire hard case, signed zero and
   the loose forms strtod accepts; then spellings that only the fallback
   reads or that nothing reads.  The short digit strings at the end
   each need the second 64-bit product to round right. *)
let fixed =
  [ "9007199254740993"; "9007199254740995"; "2.2250738585072011e-308";
    "2.2250738585072014e-308"; "4.9406564584124654e-324"; "2.4703282292062327e-324";
    "2.4703282292062328e-324"; "1.7976931348623158e308"; "1.7976931348623159e308";
    "1e23"; "8.589973e9"; "-0"; "-0.0e5"; "+1.5"; "1."; ".5"; "1.e5"; "0e999999";
    "1_0.5"; "_1"; "0x1p3"; "-0X1.8p1"; "nan"; "-nan"; "inf"; "-infinity"; "1e"; "1e+";
    "e5"; "."; "-"; "+"; ""; " 1.5"; "1.5 "; "1.5\n"; "1..5"; "1e5.5"; "1\0002";
    "1e-400"; "1e400"; "-1e400"; "1e-342"; "1e-343"; "1e308"; "1e309";
    "0.99999941781205426"; "0.99999999999999989"; "1.0000000000000002";
    "1234567890123456789"; "9999999999999999999"; "12345678901234567890";
    "00000000000000000000000000001.25"; "0.000000000000000000000000000001";
    "1e000000000000000000000000005"; "1e100000"; "1e-99999";
    "69e-145"; "271556e-116"; "85488632e-130"; "1924803e284"; "811822650e-309";
    "2591502119836e-256"; "619969291843e178"; "2124681e-226" ]

let test_fixed () = List.iter check_agree fixed

let test_long () =
  check_agree (String.make 1_000_000 '7');
  check_agree ("0." ^ String.make 1_000_000 '0' ^ "1");
  check_agree (String.make 999_999 '1' ^ "e-999990")

(* Every table entry, and both sides of its range: a few significands
   (1, 2^53 + 1, 17 and 19 digits, all nines) at every decimal exponent
   from -400 to 400. *)
let test_every_power () =
  let ws = [ "1"; "7"; "9007199254740993"; "31415926535897932"; "1844674407370955161";
             "9999999999999999999"; "4503599627370497" ] in
  for q = -400 to 400 do
    List.iter (fun w -> check_agree (Printf.sprintf "%se%d" w q)) ws
  done

(* The table as scripts/gen_pow5.py writes it: 651 entries of 16 bytes,
   5^0 = 2^127, 5^1 = 5 * 2^125, and 5^-1 rounded up from 2^130 / 5. *)
let test_table () =
  let module T = Numerics.Pow5_table in
  Alcotest.(check int) "entries" (16 * (T.largest - T.smallest + 1)) (String.length T.table);
  let entry q =
    let k = 16 * (q - T.smallest) in
    (String.get_int64_le T.table k, String.get_int64_le T.table (k + 8))
  in
  check_true "5^0" (entry 0 = (Int64.min_int, 0L));
  check_true "5^1" (entry 1 = (0xA000_0000_0000_0000L, 0L));
  check_true "5^-1" (entry (-1) = (0xCCCC_CCCC_CCCC_CCCCL, 0xCCCC_CCCC_CCCC_CCCDL))

let test_spans () =
  let s = "ab0.99999941781205426 -1e23,9007199254740993" in
  List.iter
    (fun (at, len) ->
      let want = outcome (fun () -> float_of_string (String.sub s at len)) in
      let got = outcome (fun () -> Dec.of_span s at len) in
      if want <> got then
        Alcotest.failf "span (%d, %d): float_of_string %s, Decimal %s" at len (show want)
          (show got))
    [ (2, 19); (22, 5); (28, 16); (0, 2); (2, 0); (21, 6); (3, 1) ];
  check_raises_invalid "negative offset" (fun () -> Dec.of_span s (-1) 2);
  check_raises_invalid "span past the end" (fun () -> Dec.of_span s 40 10);
  check_raises_invalid "negative length" (fun () -> Dec.of_span s 3 (-1))

let test_opt () =
  check_true "some" (Dec.of_string_opt "0.5" = Some 0.5);
  check_true "none" (Dec.of_string_opt "0.5x" = None);
  check_true "hex" (Dec.of_string_opt "0x1p-1" = Some 0.5)

(* --- generators ---------------------------------------------------------------- *)

let gen_double =
  let open QCheck2.Gen in
  let* bits = ui64 and* p = int_range 0 17 and* sci = bool in
  let x = Int64.float_of_bits bits in
  pure (if sci then Printf.sprintf "%.*e" p x else Printf.sprintf "%.*g" (max p 1) x)

(* Confidences in (0, 1], most of them within a few ulps of 1. *)
let gen_confidence =
  let open QCheck2.Gen in
  let* u = float_bound_exclusive 1.0 and* k = int_range 1 40 and* p = int_range 1 17 in
  let c = 1.0 -. (u ** float_of_int k) in
  let c = if c > 0.0 then c else 1.0 in
  pure (Printf.sprintf "%.*g" p c)

(* 1-25 digits (a leading zero run sometimes), a point anywhere or
   nowhere, an exponent in [-400, 400] with either letter and sign. *)
let gen_digits =
  let open QCheck2.Gen in
  let* sign = oneofl [ ""; ""; "-"; "+" ]
  and* zeros = frequency [ (4, pure 0); (1, int_bound 5) ]
  and* digits = string_size ~gen:numeral (int_range 1 25)
  and* point = int_range (-1) 25
  and* e = int_range (-400) 400
  and* letter = oneofl [ ""; "e"; "E"; "e+" ] in
  let d = String.make zeros '0' ^ digits in
  let n = String.length d in
  let mantissa =
    if point < 0 || point > n then d else String.sub d 0 point ^ "." ^ String.sub d point (n - point)
  in
  let exponent =
    match letter with
    | "" -> ""
    | "e+" -> if e >= 0 then Printf.sprintf "e+%d" e else Printf.sprintf "e%d" e
    | l -> l ^ string_of_int e
  in
  pure (sign ^ mantissa ^ exponent)

(* A number spelling inside random bytes: the span, not the string. *)
let gen_embedded =
  let open QCheck2.Gen in
  let* pre = string_size (int_bound 8)
  and* body = oneof [ gen_double; gen_digits; gen_confidence ]
  and* post = string_size (int_bound 8) in
  pure (pre ^ body ^ post, String.length pre, String.length body)

let number_fixtures =
  [ "0.99999941781205426"; "1e23"; "-2.2250738585072011e-308"; "123456789012345678901234";
    ".5"; "1_000.5"; "9007199254740993"; "4.9406564584124654e-324" ]

let qc ~count ~print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen prop)

let suite =
  [ case "fixed spellings agree with float_of_string" test_fixed;
    case "every power of ten in and around the table" test_every_power;
    case "long spellings fall back" test_long;
    case "power-of-five table" test_table;
    case "spans inside a larger string" test_spans;
    case "of_string_opt" test_opt;
    qc ~count:20_000 "random doubles at every precision" ~print:Fun.id gen_double agree_string;
    qc ~count:20_000 "confidences near 1" ~print:Fun.id gen_confidence agree_string;
    qc ~count:50_000 "digit strings with exponents -400..400" ~print:Fun.id gen_digits
      agree_string;
    qc ~count:5_000 "spans at an offset"
      ~print:(fun (s, at, len) -> Printf.sprintf "%S %d %d" s at len)
      gen_embedded
      (fun (s, at, len) -> agree s at len);
    qc ~count:5_000 "hostile bytes" ~print:(Printf.sprintf "%S")
      (gen_hostile_text number_fixtures) agree_string ]
