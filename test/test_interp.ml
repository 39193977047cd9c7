open Helpers
module Ip = Numerics.Interp

let grid = [| 0.0; 1.0; 2.0; 5.0 |]

let test_search_sorted () =
  Alcotest.(check int) "below" (-1) (Ip.search_sorted grid (-0.5));
  Alcotest.(check int) "at first" 0 (Ip.search_sorted grid 0.0);
  Alcotest.(check int) "interior" 1 (Ip.search_sorted grid 1.5);
  Alcotest.(check int) "at knot" 2 (Ip.search_sorted grid 2.0);
  Alcotest.(check int) "above" 3 (Ip.search_sorted grid 7.0);
  check_raises_invalid "empty" (fun () -> ignore (Ip.search_sorted [||] 0.0))

let test_linear () =
  let ys = [| 0.0; 10.0; 20.0; 50.0 |] in
  check_close "at knot" 10.0 (Ip.linear grid ys 1.0);
  check_close "interior" 15.0 (Ip.linear grid ys 1.5);
  check_close "long panel" 30.0 (Ip.linear grid ys 3.0);
  check_close "clamp low" 0.0 (Ip.linear grid ys (-3.0));
  check_close "clamp high" 50.0 (Ip.linear grid ys 99.0);
  check_raises_invalid "length mismatch" (fun () ->
      ignore (Ip.linear grid [| 1.0 |] 0.5))

let test_inverse_monotone () =
  let ys = [| 0.0; 0.25; 0.5; 1.0 |] in
  check_close "mid" 2.0 (Ip.inverse_monotone grid ys 0.5);
  check_close "interpolated" 0.5 (Ip.inverse_monotone grid ys 0.125);
  check_close "clamp low" 0.0 (Ip.inverse_monotone grid ys (-1.0));
  check_close "clamp high" 5.0 (Ip.inverse_monotone grid ys 2.0)

let test_linspace_logspace () =
  let l = Ip.linspace 0.0 1.0 5 in
  check_close "linspace start" 0.0 l.(0);
  check_close "linspace step" 0.25 l.(1);
  check_close "linspace end" 1.0 l.(4);
  let g = Ip.logspace 1.0 100.0 3 in
  check_close ~eps:1e-12 "logspace middle" 10.0 g.(1);
  check_close ~eps:1e-12 "logspace end" 100.0 g.(2);
  check_raises_invalid "logspace needs positive" (fun () ->
      ignore (Ip.logspace 0.0 1.0 4));
  check_raises_invalid "linspace n < 2" (fun () -> ignore (Ip.linspace 0.0 1.0 1))

let test_roundtrip =
  qcheck "inverse_monotone inverts linear on monotone data"
    QCheck2.Gen.(float_bound_inclusive 1.0)
    (fun u ->
      let xs = [| 0.0; 0.3; 0.7; 1.3; 2.0 |] in
      let ys = Array.map (fun x -> x *. x) xs in
      let y = u *. 4.0 in
      if y > ys.(4) then true
      else begin
        let x = Ip.inverse_monotone xs ys y in
        abs_float (Ip.linear xs ys x -. y) < 1e-9
      end)

let test_spaces_match_oracle =
  qcheck ~count:300 "linspace/logspace match the Array.init oracle bitwise"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = rng_of_seed seed in
      let n = Numerics.Rng.int rng 40 in
      let a = Numerics.Rng.uniform rng (-2.0) 3.0 in
      let b = Numerics.Rng.uniform rng (-2.0) 3.0 in
      let outcome f =
        match f () with
        | xs -> Ok (Array.map Int64.bits_of_float xs)
        | exception Invalid_argument m -> Error m
      in
      outcome (fun () -> Numerics.Interp.linspace a b n)
      = outcome (fun () -> Grid_oracle.linspace a b n)
      && outcome (fun () -> Numerics.Interp.logspace a b n)
         = outcome (fun () -> Grid_oracle.logspace a b n))

let suite =
  [ case "search_sorted" test_search_sorted;
    case "linear interpolation" test_linear;
    case "inverse of tabulated monotone fn" test_inverse_monotone;
    case "linspace / logspace" test_linspace_logspace;
    test_spaces_match_oracle;
    test_roundtrip ]
