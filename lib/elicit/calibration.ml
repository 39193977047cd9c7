let check_predictions name predictions =
  if predictions = [] then invalid_arg (name ^ ": no predictions");
  List.iter
    (fun (p, _) ->
      if p < 0.0 || p > 1.0 then invalid_arg (name ^ ": forecast out of [0,1]"))
    predictions

let brier predictions =
  check_predictions "Calibration.brier" predictions;
  let n = float_of_int (List.length predictions) in
  List.fold_left
    (fun acc (p, outcome) ->
      let o = if outcome then 1.0 else 0.0 in
      acc +. ((p -. o) *. (p -. o)))
    0.0 predictions
  /. n

let log_score predictions =
  check_predictions "Calibration.log_score" predictions;
  let n = float_of_int (List.length predictions) in
  List.fold_left
    (fun acc (p, outcome) ->
      let q = if outcome then p else 1.0 -. p in
      acc -. log q)
    0.0 predictions
  /. n

let calibration_curve ~bins predictions =
  if bins < 1 then invalid_arg "Calibration.calibration_curve: bins < 1";
  check_predictions "Calibration.calibration_curve" predictions;
  let counts = Array.make bins 0 in
  let hits = Array.make bins 0 in
  List.iter
    (fun (p, outcome) ->
      let b = min (bins - 1) (int_of_float (p *. float_of_int bins)) in
      counts.(b) <- counts.(b) + 1;
      if outcome then hits.(b) <- hits.(b) + 1)
    predictions;
  List.init bins (fun b -> b)
  |> List.filter_map (fun b ->
         if counts.(b) = 0 then None
         else
           Some
             ( (float_of_int b +. 0.5) /. float_of_int bins,
               float_of_int hits.(b) /. float_of_int counts.(b),
               counts.(b) ))

let pit_values beliefs_and_truths =
  if beliefs_and_truths = [] then
    invalid_arg "Calibration.pit_values: empty input";
  List.map (fun ((d : Dist.t), truth) -> d.cdf truth) beliefs_and_truths

let ks_uniform_stat xs =
  if xs = [] then invalid_arg "Calibration.ks_uniform_stat: empty input";
  let sorted = Numerics.Columns.of_array (Array.of_list xs) in
  Numerics.Columns.sort sorted;
  let n = Numerics.Columns.length sorted in
  let stat = ref 0.0 in
  for i = 0 to n - 1 do
    let x = Numerics.Columns.unsafe_get sorted i in
    let ecdf_hi = float_of_int (i + 1) /. float_of_int n in
    let ecdf_lo = float_of_int i /. float_of_int n in
    stat := max !stat (max (abs_float (ecdf_hi -. x)) (abs_float (x -. ecdf_lo)))
  done;
  !stat
