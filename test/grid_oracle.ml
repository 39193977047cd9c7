(* Scalar references for the grid posterior.

   These are the array-per-pass implementations that the library's
   monomorphic loops replaced, kept verbatim in what they compute:

   - [linspace]/[logspace]: [Array.init] and [Array.map exp];
   - [lognormal_log_pdf]/[lognormal_pdf]: the lognormal density taking
     [log x] twice;
   - [of_grid_values]: one [trapezoid_cumulative] for the normaliser, two
     [Array.map] normalisations, and one [trapezoid_cumulative] each for
     the first and second moments;
   - [posterior]: [Reweighted.posterior] over those pieces — every
     component's grid and prior density first, then per component a fresh
     weighted array handed to [of_grid_values].

   The library must agree with them bit for bit, error messages
   included. *)

let linspace a b n =
  if n < 2 then invalid_arg "Interp.linspace: n < 2";
  Array.init n (fun i ->
      a +. ((b -. a) *. float_of_int i /. float_of_int (n - 1)))

let logspace a b n =
  if a <= 0.0 || b <= 0.0 then invalid_arg "Interp.logspace: bounds <= 0";
  let la = log a and lb = log b in
  Array.map exp (linspace la lb n)

let lognormal_log_pdf ~mu ~sigma x =
  let log_norm = -.log (sigma *. sqrt (2.0 *. Numerics.Special.pi)) in
  if x <= 0.0 then neg_infinity
  else begin
    let z = (log x -. mu) /. sigma in
    log_norm -. log x -. (0.5 *. z *. z)
  end

let lognormal_pdf ~mu ~sigma x =
  if x <= 0.0 then 0.0 else exp (lognormal_log_pdf ~mu ~sigma x)

(* A component's prior density: the two-log formula for lognormals, the
   family's own pdf otherwise. *)
let pdf_of (d : Dist.t) =
  match d.kernel with
  | Dist.Lognormal_k { mu; sigma } -> lognormal_pdf ~mu ~sigma
  | _ -> d.pdf

let check_grid grid =
  let n = Array.length grid in
  if n < 8 then invalid_arg "Dist.of_grid_pdf: grid too small";
  for i = 1 to n - 1 do
    if grid.(i) <= grid.(i - 1) then
      invalid_arg "Dist.of_grid_pdf: grid not strictly increasing"
  done

let of_grid_values ~name ~grid ~values:raw () =
  check_grid grid;
  let n = Array.length grid in
  if Array.length raw <> n then
    invalid_arg "Dist.of_grid_values: values length differs from grid";
  Array.iteri
    (fun i v ->
      if v < 0.0 || not (Float.is_finite v) then
        invalid_arg
          (Printf.sprintf "Dist.of_grid_pdf: bad density %g at grid point %g" v
             grid.(i)))
    raw;
  let cum = Numerics.Integrate.trapezoid_cumulative grid raw in
  let z = cum.(n - 1) in
  if z <= 0.0 then invalid_arg "Dist.of_grid_pdf: density integrates to zero";
  let density = Array.map (fun v -> v /. z) raw in
  let cdf_tab = Array.map (fun v -> v /. z) cum in
  let pdf_fn x =
    if x < grid.(0) || x > grid.(n - 1) then 0.0
    else Numerics.Interp.linear grid density x
  in
  let cdf_fn x =
    if x <= grid.(0) then 0.0
    else if x >= grid.(n - 1) then 1.0
    else Numerics.Interp.linear grid cdf_tab x
  in
  let quantile_fn p =
    Dist.check_prob p;
    Numerics.Interp.inverse_monotone grid cdf_tab p
  in
  let weighted f =
    let ys = Array.mapi (fun i x -> f x *. density.(i)) grid in
    let c = Numerics.Integrate.trapezoid_cumulative grid ys in
    c.(n - 1)
  in
  let mean = weighted (fun x -> x) in
  let second = weighted (fun x -> x *. x) in
  let variance = max 0.0 (second -. (mean *. mean)) in
  let mode =
    let best = ref 0 in
    Array.iteri (fun i v -> if v > density.(!best) then best := i) density;
    Some grid.(!best)
  in
  ( {
      Dist.name;
      support = (grid.(0), grid.(n - 1));
      pdf = pdf_fn;
      log_pdf = (fun x -> log (pdf_fn x));
      cdf = cdf_fn;
      quantile = quantile_fn;
      mean;
      variance;
      mode;
      sample = (fun rng -> quantile_fn (Numerics.Rng.float_pos rng));
      kernel = Dist.Generic;
    },
    z )

let component_grid (d : Dist.t) n =
  let q_lo = d.quantile 1e-9 in
  let q_hi = d.quantile (1.0 -. 1e-9) in
  if q_lo > 0.0 then logspace q_lo q_hi n else linspace q_lo q_hi n

let posterior ?(grid_size = 1025) belief ~weight =
  let prepared =
    List.map
      (fun (w, c) ->
        match (c : Dist.Mixture.component) with
        | Dist.Mixture.Atom _ -> (w, c, [||], [||])
        | Dist.Mixture.Cont d ->
          let grid = component_grid d grid_size in
          (w, c, grid, Array.map (pdf_of d) grid))
      (Dist.Mixture.components belief)
  in
  let updated =
    List.map
      (fun (w, c, grid, density) ->
        match (c : Dist.Mixture.component) with
        | Dist.Mixture.Atom a ->
          let f = weight a in
          if f < 0.0 || not (Float.is_finite f) then
            invalid_arg "Reweighted.posterior: bad weight at atom";
          (w *. f, c)
        | Dist.Mixture.Cont d -> (
          let n = Array.length grid in
          let values = Array.make n 0.0 in
          try
            for i = 0 to n - 1 do
              let x = grid.(i) in
              let wt = weight x in
              if wt < 0.0 || not (Float.is_finite wt) then
                invalid_arg
                  (Printf.sprintf "Reweighted.posterior: bad weight %g at %g"
                     wt x);
              values.(i) <- density.(i) *. wt
            done;
            let d', z =
              of_grid_values ~name:(d.name ^ " | reweighted") ~grid ~values ()
            in
            (w *. z, Dist.Mixture.Cont d')
          with
          | Invalid_argument msg
            when msg = "Dist.of_grid_pdf: density integrates to zero"
            ->
            (0.0, c)))
      prepared
  in
  let evidence = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 updated in
  if evidence <= 0.0 then
    invalid_arg "Reweighted.posterior: weight annihilates all mass";
  (Dist.Mixture.make (List.map (fun (w, c) -> (w /. evidence, c)) updated),
   evidence)
