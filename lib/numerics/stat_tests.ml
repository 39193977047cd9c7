type result = { statistic : float; p_value : float }

let chi_square_df ~observed ~expected ~df =
  let k = Array.length observed in
  if k < 2 then invalid_arg "Stat_tests.chi_square: need >= 2 cells";
  if Array.length expected <> k then
    invalid_arg "Stat_tests.chi_square: length mismatch";
  if df < 1 then invalid_arg "Stat_tests.chi_square: df < 1";
  Array.iter
    (fun e ->
      if e <= 0.0 then
        invalid_arg "Stat_tests.chi_square: expected counts must be positive")
    expected;
  let stat = ref 0.0 in
  for i = 0 to k - 1 do
    let d = float_of_int observed.(i) -. expected.(i) in
    stat := !stat +. (d *. d /. expected.(i))
  done;
  let p_value = Special.gamma_q (float_of_int df /. 2.0) (!stat /. 2.0) in
  { statistic = !stat; p_value }

let chi_square ~observed ~expected =
  chi_square_df ~observed ~expected ~df:(Array.length observed - 1)

let kolmogorov_survival lambda =
  if lambda <= 0.0 then 1.0
  else begin
    let acc = ref 0.0 in
    let term k =
      let kf = float_of_int k in
      let sign = if k mod 2 = 1 then 1.0 else -1.0 in
      sign *. exp (-2.0 *. kf *. kf *. lambda *. lambda)
    in
    let k = ref 1 in
    let continue_ = ref true in
    while !continue_ && !k <= 100 do
      let t = term !k in
      acc := !acc +. t;
      if abs_float t < 1e-12 then continue_ := false;
      incr k
    done;
    min 1.0 (max 0.0 (2.0 *. !acc))
  end

let ks_statistic xs ~cdf =
  let sorted = Columns.of_array xs in
  Columns.sort sorted;
  let n = Columns.length sorted in
  let stat = ref 0.0 in
  for i = 0 to n - 1 do
    let f = cdf (Columns.unsafe_get sorted i) in
    let hi = float_of_int (i + 1) /. float_of_int n in
    let lo = float_of_int i /. float_of_int n in
    stat := max !stat (max (abs_float (hi -. f)) (abs_float (f -. lo)))
  done;
  !stat

let ks_one_sample xs ~cdf =
  let n = Array.length xs in
  if n < 8 then invalid_arg "Stat_tests.ks: need >= 8 samples";
  let statistic = ks_statistic xs ~cdf in
  let nf = float_of_int n in
  (* Stephens' small-sample correction. *)
  let lambda = (sqrt nf +. 0.12 +. (0.11 /. sqrt nf)) *. statistic in
  { statistic; p_value = kolmogorov_survival lambda }

let ks_uniform xs =
  Array.iter
    (fun x ->
      if x < 0.0 || x > 1.0 then
        invalid_arg "Stat_tests.ks_uniform: sample outside [0,1]")
    xs;
  ks_one_sample xs ~cdf:(fun x -> x)
