module Cols = Numerics.Columns
module Par = Numerics.Parallel
module Sp = Numerics.Special
module Ba = Bigarray.Array1

type bands = { q05 : float; q25 : float; q50 : float; q75 : float; q95 : float }

type phase_stats = {
  phase : Delphi.phase;
  pooled_mean : float;
  confidence_sil2 : float;
  confidence_sil1 : float;
  sil2_bands : bands;
}

type result = {
  n : int;
  n_doubters : int;
  n_believers : int;
  chunks : int;
  phases : phase_stats list;
}

(* Per-assessor population state, SoA: the three expert fields that the
   phase kernels touch ([log_peak], [sigma], [learning]); rows
   [0 .. n_doubters - 1] are doubters, the rest believers, mirroring the
   index layout of [Delphi.run].  Chunk [c] owns rows
   [bounds.(c) .. bounds.(c + 1) - 1]. *)
type state = {
  nd : int;
  lp : Cols.ba;
  sg : Cols.ba;
  lr : Cols.ba;
  bounds : int array;
}

let ln_sil2 = log 1e-2
let ln_sil1 = log 1e-1

(* Closed-form per-assessor quantities for the lognormal belief
   [Dist.Lognormal.of_mode_sigma ~mode:(exp log_peak) ~sigma]: that
   constructor sets mu = log mode + sigma^2, so
   P(pfd <= x) = Phi((log x - mu) / sigma) and the mean is
   exp(mu + sigma^2 / 2).  Evaluating these directly — instead of
   building n [Dist.t] closures — is what makes million-assessor phases
   tractable. *)
let assessor_mu ~log_peak ~sigma = log_peak +. (sigma *. sigma)

(* Per-chunk believer statistics: sums of confidence and mean (folded in
   row order) plus a t-digest of the per-assessor SIL 2 confidence. *)
type partial = {
  mutable s2 : float;
  mutable s1 : float;
  mutable sm : float;
  digest : Numerics.Sketch.t;
}

let phase_stats ?pool ~chunks ~compression st phase =
  let parts =
    Par.map_chunks ?pool ~chunks (fun c ->
        let p =
          { s2 = 0.0; s1 = 0.0; sm = 0.0;
            digest = Numerics.Sketch.create ~compression () }
        in
        for i = st.bounds.(c) to st.bounds.(c + 1) - 1 do
          if i >= st.nd then begin
            let sigma = Ba.unsafe_get st.sg i in
            let mu = assessor_mu ~log_peak:(Ba.unsafe_get st.lp i) ~sigma in
            let c2 = Sp.norm_cdf ((ln_sil2 -. mu) /. sigma) in
            p.s2 <- p.s2 +. c2;
            p.s1 <- p.s1 +. Sp.norm_cdf ((ln_sil1 -. mu) /. sigma);
            p.sm <- p.sm +. exp (mu +. (0.5 *. sigma *. sigma));
            Numerics.Sketch.add p.digest c2
          end
        done;
        p)
  in
  (* Chunk-order reduction: float sums and digest merges both fold left
     over the chunk index, so the result is domain-count independent. *)
  let s2 = ref 0.0 and s1 = ref 0.0 and sm = ref 0.0 in
  let digest = Numerics.Sketch.create ~compression () in
  Array.iter
    (fun p ->
      s2 := !s2 +. p.s2;
      s1 := !s1 +. p.s1;
      sm := !sm +. p.sm;
      Numerics.Sketch.merge_into ~into:digest p.digest)
    parts;
  let nb = float_of_int (Ba.dim st.lp - st.nd) in
  let q p = Numerics.Sketch.quantile digest p in
  {
    phase;
    (* Equal-weight linear pool: pool cdf (and mean) is the average of
       the member cdfs (means) — the closed form of what
       [Delphi.snapshot] computes through [Pool.linear]. *)
    pooled_mean = !sm /. nb;
    confidence_sil2 = !s2 /. nb;
    confidence_sil1 = !s1 /. nb;
    sil2_bands =
      { q05 = q 0.05; q25 = q 0.25; q50 = q 0.5; q75 = q 0.75; q95 = q 0.95 };
  }

(* Element-wise phase kernel over believers: move the peak toward
   [target] and shrink the spread, replicating [Delphi.move_toward] and
   [Delphi.shrink] per row. *)
let move_shrink ?pool ~chunks st ~target ~gain ~spread_reduction =
  ignore
    (Par.map_chunks ?pool ~chunks (fun c ->
         for i = st.bounds.(c) to st.bounds.(c + 1) - 1 do
           if i >= st.nd then begin
             let learning = Ba.unsafe_get st.lr i in
             let peak = Ba.unsafe_get st.lp i in
             Ba.unsafe_set st.lp i
               (peak +. (gain *. learning *. (target -. peak)));
             let factor = 1.0 -. ((1.0 -. spread_reduction) *. learning) in
             Ba.unsafe_set st.sg i (Ba.unsafe_get st.sg i *. factor)
           end
         done))

(* Precision-weighted mean of believer peaks: per-chunk (num, den)
   partial sums folded in chunk order. *)
let group_view ?pool ~chunks st =
  let num, den =
    Par.parallel_for_reduce ?pool ~chunks ~init:(0.0, 0.0)
      ~body:(fun c ->
        let num = ref 0.0 and den = ref 0.0 in
        for i = st.bounds.(c) to st.bounds.(c + 1) - 1 do
          if i >= st.nd then begin
            let sigma = Ba.unsafe_get st.sg i in
            let w = 1.0 /. (sigma *. sigma) in
            num := !num +. (w *. Ba.unsafe_get st.lp i);
            den := !den +. w
          end
        done;
        (!num, !den))
      ~merge:(fun (an, ad) (bn, bd) -> (an +. bn, ad +. bd))
  in
  num /. den

let group_median st =
  let nd = st.nd in
  let nb = Ba.dim st.lp - nd in
  let peaks =
    Numerics.Columns.copy (Numerics.Columns.of_bigarray (Ba.sub st.lp nd nb))
  in
  Numerics.Select.quantile_in_place_col peaks 0.5

let run ?pool ?chunks ?(compression = 200.0) config ~n =
  Delphi.check_config config;
  if n < 2 then invalid_arg "Population.run: n < 2";
  if not (compression >= 10.0) then
    invalid_arg "Population.run: compression < 10";
  let chunks = Par.resolve_chunks ?pool ?chunks "Population.run" in
  (* Scale the doubter head-count to the population, keeping at least
     one believer (check_config guarantees the proportion is < 1). *)
  let nd = min (n * config.Delphi.n_doubters / config.Delphi.n_experts) (n - 1) in
  let nb = n - nd in
  let log_peak = Cols.make n 0.0
  and sigma = Cols.make n 0.0
  and learning = Cols.make n 0.0 in
  let st =
    {
      nd;
      lp = Cols.unsafe_data log_peak;
      sg = Cols.unsafe_data sigma;
      lr = Cols.unsafe_data learning;
      bounds = Par.slice_bounds ~n ~chunks;
    }
  in
  let stream = Par.streams ~seed:config.Delphi.seed ~chunks in
  let ln_true = log config.Delphi.true_pfd in
  let doubter_base =
    ln_true +. (config.Delphi.doubter_pessimism_decades *. log 10.0)
  in
  let sigma_lo, sigma_hi = config.Delphi.sigma_range in
  (* Briefing: batched normal noise per chunk (bit-compatible with the
     scalar draws by the fill_normals_col contract), then the
     profile-dependent transform per row. *)
  ignore
    (Par.map_chunks ?pool ~chunks (fun c ->
         let pos = st.bounds.(c) and lim = st.bounds.(c + 1) in
         Numerics.Rng.fill_normals_col (stream c) st.lp ~pos ~len:(lim - pos)
           ~mu:0.0 ~sigma:config.Delphi.briefing_noise;
         for i = pos to lim - 1 do
           let noise = Ba.unsafe_get st.lp i in
           if i < nd then begin
             Ba.unsafe_set st.lp i (doubter_base +. noise);
             Ba.unsafe_set st.sg i config.Delphi.doubter_spread;
             Ba.unsafe_set st.lr i 0.0
           end
           else begin
             let j = i - nd in
             let frac =
               if nb = 1 then 0.0
               else float_of_int j /. float_of_int (nb - 1)
             in
             Ba.unsafe_set st.lp i (ln_true +. noise);
             Ba.unsafe_set st.sg i
               (sigma_lo +. (frac *. (sigma_hi -. sigma_lo)));
             Ba.unsafe_set st.lr i (1.0 -. (frac ** 6.0))
           end
         done));
  let stats = phase_stats ?pool ~chunks ~compression st in
  let s1 = stats Delphi.Briefing in
  move_shrink ?pool ~chunks st ~target:ln_true ~gain:config.Delphi.info_gain
    ~spread_reduction:config.Delphi.spread_reduction;
  let s2 = stats Delphi.Individual_info in
  move_shrink ?pool ~chunks st ~target:(group_view ?pool ~chunks st)
    ~gain:config.Delphi.share_gain
    ~spread_reduction:config.Delphi.spread_reduction;
  let s3 = stats Delphi.Shared_info in
  move_shrink ?pool ~chunks st ~target:(group_median st)
    ~gain:config.Delphi.delphi_gain
    ~spread_reduction:config.Delphi.spread_reduction;
  let s4 = stats Delphi.Discussion in
  { n; n_doubters = nd; n_believers = nb; chunks; phases = [ s1; s2; s3; s4 ] }

let summary_table result =
  let columns =
    [ { Report.Table.header = "phase"; align = Report.Table.Left };
      { Report.Table.header = "pooled mean pfd"; align = Report.Table.Right };
      { Report.Table.header = "P(SIL2+)"; align = Report.Table.Right };
      { Report.Table.header = "SIL2 conf q05"; align = Report.Table.Right };
      { Report.Table.header = "q50"; align = Report.Table.Right };
      { Report.Table.header = "q95"; align = Report.Table.Right } ]
  in
  let rows =
    List.map
      (fun s ->
        [ Delphi.phase_to_string s.phase;
          Report.Table.float_cell s.pooled_mean;
          Report.Table.float_cell s.confidence_sil2;
          Report.Table.float_cell s.sil2_bands.q05;
          Report.Table.float_cell s.sil2_bands.q50;
          Report.Table.float_cell s.sil2_bands.q95 ])
      result.phases
  in
  Report.Table.render ~columns ~rows
