module Sp = Numerics.Special

(* (mu, sigma) is recoverable from the closed-form median and mode:
   median = exp mu, mode = exp (mu - sigma^2). *)
let make ~mu ~sigma =
  if sigma <= 0.0 then invalid_arg "Lognormal.make: sigma <= 0";
  let log_norm = -.log (sigma *. sqrt (2.0 *. Sp.pi)) in
  let log_pdf x =
    if x <= 0.0 then neg_infinity
    else begin
      let lx = log x in
      let z = (lx -. mu) /. sigma in
      log_norm -. lx -. (0.5 *. z *. z)
    end
  in
  let variance =
    let s2 = sigma *. sigma in
    (exp s2 -. 1.0) *. exp ((2.0 *. mu) +. s2)
  in
  {
    Base.name = Printf.sprintf "lognormal(mu=%g, sigma=%g)" mu sigma;
    support = (0.0, infinity);
    pdf = (fun x -> if x <= 0.0 then 0.0 else exp (log_pdf x));
    log_pdf;
    cdf =
      (fun x ->
        if x <= 0.0 then 0.0 else Sp.norm_cdf ((log x -. mu) /. sigma));
    quantile =
      (fun p ->
        Base.check_prob p;
        exp (mu +. (sigma *. Sp.norm_quantile p)));
    mean = exp (mu +. (0.5 *. sigma *. sigma));
    variance;
    mode = Some (exp (mu -. (sigma *. sigma)));
    sample = (fun rng -> Numerics.Rng.lognormal rng ~mu ~sigma);
    kernel = Base.Lognormal_k { mu; sigma };
  }

let of_log_mean_mode ~lmean ~lmode =
  if lmean <= lmode then
    invalid_arg "Lognormal.of_log_mean_mode: lmean must exceed lmode";
  let sigma2 = 2.0 *. (lmean -. lmode) /. 3.0 in
  let mu = ((2.0 *. lmean) +. lmode) /. 3.0 in
  make ~mu ~sigma:(sqrt sigma2)

let of_mode_mean ~mode ~mean =
  if mode <= 0.0 then invalid_arg "Lognormal.of_mode_mean: mode <= 0";
  if mean <= mode then invalid_arg "Lognormal.of_mode_mean: mean <= mode";
  of_log_mean_mode ~lmean:(log mean) ~lmode:(log mode)

let of_mode_sigma ~mode ~sigma =
  if mode <= 0.0 then invalid_arg "Lognormal.of_mode_sigma: mode <= 0";
  if sigma <= 0.0 then invalid_arg "Lognormal.of_mode_sigma: sigma <= 0";
  make ~mu:(log mode +. (sigma *. sigma)) ~sigma

let params (t : Base.t) =
  match t.mode with
  | Some m when fst t.support = 0.0 && m > 0.0 ->
    let median = t.quantile 0.5 in
    let mu = log median in
    let sigma2 = mu -. log m in
    if sigma2 <= 0.0 then invalid_arg "Lognormal.params: not a lognormal";
    (mu, sqrt sigma2)
  | Some _ | None -> invalid_arg "Lognormal.params: not a lognormal"

let ratio_coef = 1.5 /. log 10.0

let mean_mode_ratio_log10 ~sigma = ratio_coef *. sigma *. sigma

let sigma_of_mean_mode_ratio ~ratio_log10 =
  if ratio_log10 <= 0.0 then
    invalid_arg "Lognormal.sigma_of_mean_mode_ratio: ratio <= 0";
  sqrt (ratio_log10 /. ratio_coef)
