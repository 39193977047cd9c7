open Helpers
module S = Numerics.Summary

let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |]

let test_moments () =
  check_close "mean" 5.0 (S.mean xs);
  check_close "variance" (32.0 /. 7.0) (S.variance xs);
  check_close "std" (sqrt (32.0 /. 7.0)) (S.std xs);
  check_raises_invalid "mean of empty" (fun () -> ignore (S.mean [||]));
  check_raises_invalid "variance of singleton" (fun () ->
      ignore (S.variance [| 1.0 |]))

let test_quantiles () =
  let data = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_close "q0" 1.0 (S.quantile data 0.0);
  check_close "q1" 4.0 (S.quantile data 1.0);
  check_close "median (type 7)" 2.5 (S.median data);
  check_close "q25" 1.75 (S.quantile data 0.25);
  check_raises_invalid "p out of range" (fun () -> ignore (S.quantile data 1.5));
  (* Does not mutate. *)
  let orig = [| 3.0; 1.0; 2.0 |] in
  ignore (S.median orig);
  Alcotest.(check (array (float 0.0))) "input untouched" [| 3.0; 1.0; 2.0 |] orig

let test_quantile_total_order () =
  (* [Float.compare] gives the sort a total order: NaNs gather at the front
     instead of leaving the array partially sorted, so the upper quantiles
     of a NaN-polluted sample are still the real data. *)
  let data = [| 3.0; Float.nan; 1.0; 2.0 |] in
  check_true "NaNs sort first" (Float.is_nan (S.quantile data 0.0));
  check_close "top quantile is real data" 3.0 (S.quantile data 1.0);
  (* Signed zeros compare equal: either may sort first, and the
     quantile is a zero. *)
  check_close "negative zero before positive" (-0.0)
    (S.quantile [| 0.0; -0.0 |] 0.0)

let test_extrema () =
  check_close "min" 2.0 (S.minimum xs);
  check_close "max" 9.0 (S.maximum xs)

let test_histogram () =
  let edges = [| 0.0; 3.0; 6.0; 10.0 |] in
  let counts = S.histogram ~edges xs in
  Alcotest.(check (array int)) "counts" [| 1; 5; 2 |] counts;
  (* Out-of-range values are dropped. *)
  let counts2 = S.histogram ~edges [| -1.0; 11.0; 1.0 |] in
  Alcotest.(check (array int)) "drops outliers" [| 1; 0; 0 |] counts2;
  check_raises_invalid "needs 2 edges" (fun () ->
      ignore (S.histogram ~edges:[| 1.0 |] xs))

let test_online_matches_batch () =
  let acc = S.Online.create () in
  Array.iter (S.Online.add acc) xs;
  Alcotest.(check int) "count" 8 (S.Online.count acc);
  check_close "online mean" (S.mean xs) (S.Online.mean acc);
  check_close "online variance" (S.variance xs) (S.Online.variance acc);
  check_raises_invalid "online mean of empty" (fun () ->
      ignore (S.Online.mean (S.Online.create ())))

let test_online_property =
  let gen = QCheck2.Gen.(array_size (int_range 2 40) (float_bound_inclusive 100.0)) in
  qcheck "online = batch on random data" gen (fun data ->
      let acc = S.Online.create () in
      Array.iter (S.Online.add acc) data;
      abs_float (S.Online.mean acc -. S.mean data) < 1e-9
      && abs_float (S.Online.variance acc -. S.variance data) < 1e-7)

let acc_of arr =
  let acc = S.Online.create () in
  Array.iter (S.Online.add acc) arr;
  acc

let test_add_column () =
  let scalar = acc_of xs in
  let buf = Numerics.Columns.of_array xs in
  let batched = S.Online.create () in
  S.Online.add_column batched buf ~pos:0 ~len:(Array.length xs);
  Alcotest.(check int) "count" (S.Online.count scalar) (S.Online.count batched);
  check_true "mean bitwise equal to per-element add"
    (S.Online.mean batched = S.Online.mean scalar);
  check_true "variance bitwise equal to per-element add"
    (S.Online.variance batched = S.Online.variance scalar);
  (* Segmentation (including an empty segment) must not change the fold. *)
  let seg = S.Online.create () in
  S.Online.add_column seg buf ~pos:0 ~len:3;
  S.Online.add_column seg buf ~pos:3 ~len:0;
  S.Online.add_column seg buf ~pos:3 ~len:5;
  check_true "segmented fold bitwise equal"
    (S.Online.mean seg = S.Online.mean scalar
    && S.Online.variance seg = S.Online.variance scalar);
  check_raises_invalid "range check" (fun () ->
      S.Online.add_column seg buf ~pos:6 ~len:5)

let test_merge () =
  let whole = acc_of xs in
  let left = acc_of (Array.sub xs 0 3) in
  let right = acc_of (Array.sub xs 3 5) in
  let merged = S.Online.merge left right in
  Alcotest.(check int) "count" (S.Online.count whole) (S.Online.count merged);
  check_close "mean" (S.Online.mean whole) (S.Online.mean merged);
  check_close "variance" (S.Online.variance whole) (S.Online.variance merged);
  (* Merging must not mutate its arguments. *)
  Alcotest.(check int) "left untouched" 3 (S.Online.count left);
  Alcotest.(check int) "right untouched" 5 (S.Online.count right);
  (* The empty accumulator is a two-sided identity. *)
  let empty = S.Online.create () in
  check_close "left identity" (S.Online.mean whole)
    (S.Online.mean (S.Online.merge empty whole));
  check_close "right identity" (S.Online.variance whole)
    (S.Online.variance (S.Online.merge whole empty));
  Alcotest.(check int) "empty + empty" 0
    (S.Online.count (S.Online.merge empty (S.Online.create ())))

(* Any split of a sample array must merge back to the whole-array
   accumulator (the Chan et al. combination is exact up to rounding). *)
let test_merge_split_property =
  let gen =
    QCheck2.Gen.(
      pair
        (array_size (int_range 2 60) (float_bound_inclusive 100.0))
        (int_bound 1000))
  in
  qcheck "merge of any split = whole" gen (fun (data, k) ->
      let cut = k mod (Array.length data + 1) in
      let left = acc_of (Array.sub data 0 cut) in
      let right = acc_of (Array.sub data cut (Array.length data - cut)) in
      let merged = S.Online.merge left right in
      let whole = acc_of data in
      S.Online.count merged = S.Online.count whole
      && abs_float (S.Online.mean merged -. S.Online.mean whole) < 1e-9
      && abs_float (S.Online.variance merged -. S.Online.variance whole) < 1e-7)

let test_merge_associative =
  let gen =
    QCheck2.Gen.(
      triple
        (array_size (int_range 1 30) (float_bound_inclusive 100.0))
        (array_size (int_range 1 30) (float_bound_inclusive 100.0))
        (array_size (int_range 1 30) (float_bound_inclusive 100.0)))
  in
  qcheck "merge is associative" gen (fun (a, b, c) ->
      let aa = acc_of a and bb = acc_of b and cc = acc_of c in
      let l = S.Online.merge (S.Online.merge aa bb) cc in
      let r = S.Online.merge aa (S.Online.merge bb cc) in
      S.Online.count l = S.Online.count r
      && abs_float (S.Online.mean l -. S.Online.mean r) < 1e-9
      && abs_float
           (S.Online.variance l -. S.Online.variance r)
         < 1e-7)

let test_quantile_matches_sort =
  qcheck ~count:300 "quantile matches a sorted copy bitwise"
    QCheck2.Gen.(pair (int_range 0 1_000_000) (float_bound_inclusive 1.0))
    (fun (seed, p) ->
      let rng = rng_of_seed seed in
      let xs = tied_sample ~nans:true rng (1 + Numerics.Rng.int rng 300) in
      List.for_all
        (fun p ->
          same_bits (S.quantile xs p) (S.quantile_sorted (sorted_copy xs) p))
        [ 0.0; p; 0.5; 1.0 ])

let suite =
  [ case "moments" test_moments;
    case "quantiles" test_quantiles;
    case "quantile total order (NaN, signed zero)" test_quantile_total_order;
    test_quantile_matches_sort;
    case "extrema" test_extrema;
    case "histogram" test_histogram;
    case "online accumulator" test_online_matches_batch;
    test_online_property;
    case "batched fold matches per-element add" test_add_column;
    case "online merge (Chan et al.)" test_merge;
    test_merge_split_property;
    test_merge_associative ]
