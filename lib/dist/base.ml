type kernel =
  | Normal_k of { mu : float; sigma : float }
  | Lognormal_k of { mu : float; sigma : float }
  | Uniform_k of { lo : float; hi : float }
  | Exponential_k of { rate : float }
  | Generic

type t = {
  name : string;
  support : float * float;
  pdf : float -> float;
  log_pdf : float -> float;
  cdf : float -> float;
  quantile : float -> float;
  mean : float;
  variance : float;
  mode : float option;
  sample : Numerics.Rng.t -> float;
  kernel : kernel;
}

(* Batched sampling: families with a closed-form sampler dispatch to the
   allocation-free [Rng.fill_*_col] kernels; everything else falls back to
   a scalar loop over [t.sample].  Either way the draws are bit-identical
   to [len] successive [t.sample rng] calls (the fill kernels reproduce the
   scalar draw sequences exactly). *)
let sample_into_col t rng (buf : Numerics.Columns.ba) ~pos ~len =
  match t.kernel with
  | Normal_k { mu; sigma } ->
    Numerics.Rng.fill_normals_col rng buf ~pos ~len ~mu ~sigma
  | Lognormal_k { mu; sigma } ->
    Numerics.Rng.fill_lognormals_col rng buf ~pos ~len ~mu ~sigma
  | Uniform_k { lo; hi } ->
    Numerics.Rng.fill_uniforms_col rng buf ~pos ~len ~a:lo ~b:hi
  | Exponential_k { rate } ->
    Numerics.Rng.fill_exponentials_col rng buf ~pos ~len ~rate
  | Generic ->
    if pos < 0 || len < 0 || len > Bigarray.Array1.dim buf - pos then
      invalid_arg "Dist.sample_into_col";
    for i = pos to pos + len - 1 do
      Bigarray.Array1.unsafe_set buf i (t.sample rng)
    done

let std t = sqrt t.variance
let survival t x = 1.0 -. t.cdf x
let interval_prob t a b = t.cdf b -. t.cdf a

let check_prob p =
  if not (p > 0.0 && p < 1.0) then
    invalid_arg "Dist: probability must lie strictly in (0,1)"

let check_grid grid =
  let n = Array.length grid in
  if n < 8 then invalid_arg "Dist.of_grid_pdf: grid too small";
  for i = 1 to n - 1 do
    if grid.(i) <= grid.(i - 1) then
      invalid_arg "Dist.of_grid_pdf: grid not strictly increasing"
  done

(* Shared back half of the grid constructors: [raw] holds the (possibly
   unnormalised) density tabulated on [grid].  Error messages keep the
   historical "Dist.of_grid_pdf" prefix — callers (Reweighted) match on
   them to detect annihilated components.

   Every pass is a monomorphic loop over [float array]s, so no float is
   boxed per grid point, and the only array allocated is the cdf table:
   [raw] is normalised in place into the density.  The float operations
   and their order are those of the trapezoid rule term by term: the
   cumulative table is
   [c.(i) = c.(i-1) +. 0.5 *. (y_i +. y_(i-1)) *. (x_i -. x_(i-1))], and
   the moments are the last entries of the same recurrence over
   [y = x·d] and [y = x·x·d]. *)
let of_grid_values ~name ~grid ~values:raw () =
  check_grid grid;
  let n = Array.length grid in
  if Array.length raw <> n then
    invalid_arg "Dist.of_grid_values: values length differs from grid";
  for i = 0 to n - 1 do
    let v = raw.(i) in
    if v < 0.0 || not (Float.is_finite v) then
      invalid_arg
        (Printf.sprintf "Dist.of_grid_pdf: bad density %g at grid point %g" v
           grid.(i))
  done;
  let cdf_tab = Array.create_float n in
  cdf_tab.(0) <- 0.0;
  for i = 1 to n - 1 do
    cdf_tab.(i) <-
      cdf_tab.(i - 1)
      +. (0.5 *. (raw.(i) +. raw.(i - 1)) *. (grid.(i) -. grid.(i - 1)))
  done;
  let z = cdf_tab.(n - 1) in
  if z <= 0.0 then invalid_arg "Dist.of_grid_pdf: density integrates to zero";
  let density = raw in
  for i = 0 to n - 1 do
    density.(i) <- density.(i) /. z;
    cdf_tab.(i) <- cdf_tab.(i) /. z
  done;
  let pdf_fn x = Numerics.Interp.linear grid density x in
  let pdf_fn x =
    if x < grid.(0) || x > grid.(n - 1) then 0.0 else pdf_fn x
  in
  let cdf_fn x =
    if x <= grid.(0) then 0.0
    else if x >= grid.(n - 1) then 1.0
    else Numerics.Interp.linear grid cdf_tab x
  in
  let quantile_fn p =
    check_prob p;
    Numerics.Interp.inverse_monotone grid cdf_tab p
  in
  (* Moments by trapezoid on the same grid, both in one pass. *)
  let m1 = ref 0.0 and m2 = ref 0.0 in
  let x0 = grid.(0) in
  let y1_prev = ref (x0 *. density.(0)) in
  let y2_prev = ref (x0 *. x0 *. density.(0)) in
  for i = 1 to n - 1 do
    let x = grid.(i) and d = density.(i) in
    let dx = x -. grid.(i - 1) in
    let y1 = x *. d and y2 = x *. x *. d in
    m1 := !m1 +. (0.5 *. (y1 +. !y1_prev) *. dx);
    m2 := !m2 +. (0.5 *. (y2 +. !y2_prev) *. dx);
    y1_prev := y1;
    y2_prev := y2
  done;
  let mean = !m1 in
  let variance = max 0.0 (!m2 -. (mean *. mean)) in
  let best = ref 0 in
  for i = 1 to n - 1 do
    if density.(i) > density.(!best) then best := i
  done;
  let mode = Some grid.(!best) in
  let sample rng = quantile_fn (Numerics.Rng.float_pos rng) in
  ( {
      name;
      support = (grid.(0), grid.(n - 1));
      pdf = pdf_fn;
      log_pdf = (fun x -> log (pdf_fn x));
      cdf = cdf_fn;
      quantile = quantile_fn;
      mean;
      variance;
      mode;
      sample;
      kernel = Generic;
    },
    z )

let of_grid_pdf ~name ~grid ~pdf () =
  check_grid grid;
  let n = Array.length grid in
  let values = Array.create_float n in
  for i = 0 to n - 1 do
    values.(i) <- pdf grid.(i)
  done;
  of_grid_values ~name ~grid ~values ()

let expect t f =
  let g u = f (t.quantile u) in
  (* Stay off the exact endpoints where quantile diverges for unbounded
     supports; the omitted mass is ~2e-9. *)
  Numerics.Integrate.adaptive ~tol:1e-9 g 1e-9 (1.0 -. 1e-9)
