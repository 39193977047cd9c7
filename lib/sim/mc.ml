module Par = Numerics.Parallel

type estimate = {
  mean : float;
  std_error : float;
  ci95_lo : float;
  ci95_hi : float;
  n : int;
}

let of_online acc n =
  let mean = Numerics.Summary.Online.mean acc in
  let std_error =
    Numerics.Summary.Online.std acc /. sqrt (float_of_int n)
  in
  {
    mean;
    std_error;
    ci95_lo = mean -. (1.96 *. std_error);
    ci95_hi = mean +. (1.96 *. std_error);
    n;
  }

let estimate ~n rng f =
  if n < 2 then invalid_arg "Mc.estimate: n < 2";
  let acc = Numerics.Summary.Online.create () in
  for _ = 1 to n do
    Numerics.Summary.Online.add acc (f rng)
  done;
  of_online acc n

let probability ~n rng event =
  estimate ~n rng (fun rng -> if event rng then 1.0 else 0.0)

(* The Welford fan-out: each non-empty chunk folds its observations into a
   fresh accumulator with [observe acc ~size rng]. *)
let welford_par ?pool ?chunks ~name ~n ~seed observe =
  Par.fan_out ?pool ?chunks ~name ~n ~seed
    ~init:(Numerics.Summary.Online.create ())
    ~merge:Numerics.Summary.Online.merge
    (fun ~size rng ->
      let acc = Numerics.Summary.Online.create () in
      if size > 0 then observe acc ~size rng;
      acc)

(* Scratch-buffer segmentation constant for the batched path.  Like
   [chunks], it is part of the stream definition: a fill function may draw
   differently for one segment of 2k than for two segments of 1k (e.g.
   [Mixture.sample_into_col] batches its selection uniforms per segment), so
   this is a fixed constant rather than a tunable — changing it is a
   stream change, exactly like changing the chunk count. *)
let batch_size = 4096

type batch_fill_col =
  Numerics.Rng.t -> Numerics.Columns.ba -> pos:int -> len:int -> unit

(* Per-domain scratch: a stack of columns in domain-local storage.  A run
   borrows the first free column for its duration and hands it back on
   exit, so nested or side-by-side runs on one domain (a sampler that
   itself runs a batched estimate, a fill that needs a second buffer) get
   distinct buffers, and once the stack is as deep as the deepest nesting
   no call allocates.  Every slot a run reads is written by its own fill
   first, so reuse cannot change any result; what it does do is stop the
   hot path from churning the major heap (a 32 kB buffer per chunk per
   call), which matters under parallelism because every collection is a
   stop-the-world rendezvous of all domains.  Pool runs never interleave
   on a domain (a waiting caller blocks rather than picking up other
   work), so borrows nest strictly. *)
type scratch = { mutable cols : Numerics.Columns.t array; mutable depth : int }

let scratch_key = Domain.DLS.new_key (fun () -> { cols = [||]; depth = 0 })

let with_scratch len f =
  let st = Domain.DLS.get scratch_key in
  let d = st.depth in
  if d = Array.length st.cols then
    st.cols <-
      Array.append st.cols [| Numerics.Columns.create ~capacity:len () |]
  else if Numerics.Columns.capacity st.cols.(d) < len then
    st.cols.(d) <- Numerics.Columns.create ~capacity:len ();
  let col = st.cols.(d) in
  Numerics.Columns.set_length col len;
  st.depth <- d + 1;
  match f col with
  | v ->
    st.depth <- d;
    v
  | exception e ->
    st.depth <- d;
    raise e

(* [segments ~size step] — cut a chunk of [size > 0] slots into
   [batch_size] segments on one borrowed scratch column, calling
   [step col ~start ~len] for each in order.  The borrowed column may be
   longer than requested; segment lengths come from [batch_size] alone so
   the stream never depends on what earlier calls left in domain-local
   storage. *)
let segments ~size step =
  let seg = min size batch_size in
  with_scratch seg (fun col ->
      let start = ref 0 in
      while !start < size do
        let len = min (size - !start) seg in
        step col ~start:!start ~len;
        start := !start + len
      done)

let fill_col_of_scalar f : batch_fill_col =
 fun rng buf ~pos ~len ->
  for j = pos to pos + len - 1 do
    Bigarray.Array1.set buf j (f rng)
  done

let estimate_par_batched_col ?pool ?chunks ~n ~seed make_fill =
  if n < 2 then invalid_arg "Mc.estimate_par_batched_col: n < 2";
  let total =
    welford_par ?pool ?chunks ~name:"Mc.estimate_par_batched_col" ~n ~seed
      (fun acc ~size rng ->
        (* Instantiated per chunk, in the executing domain, so any scratch
           state the fill closes over is domain-local. *)
        let fill = make_fill () in
        segments ~size (fun col ~start:_ ~len ->
            fill rng (Numerics.Columns.unsafe_data col) ~pos:0 ~len;
            Numerics.Summary.Online.add_column acc col ~pos:0 ~len))
  in
  of_online total n

let probability_par ?pool ?chunks ~n ~seed event =
  estimate_par_batched_col ?pool ?chunks ~n ~seed (fun () ->
      fill_col_of_scalar (fun rng -> if event rng then 1.0 else 0.0))

(* One chunk of a sketch fan-out: [size] samples drawn segment by segment
   into a fresh sketch, each segment also handed to [also].  The sketch
   is flushed here, in the chunk's domain, so the chunk-order fold only
   merges centroids. *)
let chunk_sketch ?compression ~size rng make_fill also =
  let sk = Numerics.Sketch.create ?compression () in
  if size > 0 then begin
    let fill = make_fill () in
    segments ~size (fun col ~start:_ ~len ->
        fill rng (Numerics.Columns.unsafe_data col) ~pos:0 ~len;
        also col len;
        Numerics.Sketch.add_column sk col ~pos:0 ~len);
    Numerics.Sketch.flush sk
  end;
  sk

let merge_sketch into sk =
  Numerics.Sketch.merge_into ~into sk;
  into

(* Sketch fan-out: same stream discipline as [estimate_par_batched_col] —
   one stream per chunk, [batch_size] segments — but each chunk
   accumulates a t-digest instead of a Welford state, and the digests
   merge in chunk order.  [Sketch.merge] is deterministic (though only
   approximately associative), and the fold order is fixed by
   [parallel_for_reduce], so the resulting sketch — hence every quantile
   read from it — is a pure function of (seed, chunks, n, compression):
   bit-identical at any domain count.  The fold is the allocation-free
   in-place [Sketch.merge_into], which is bit-identical to
   [Sketch.merge] by construction. *)
let sketch_par_col ?pool ?compression ?chunks ~n ~seed make_fill =
  if n < 1 then invalid_arg "Mc.sketch_par_col: n < 1";
  Par.fan_out ?pool ?chunks ~name:"Mc.sketch_par_col" ~n ~seed
    ~init:(Numerics.Sketch.create ?compression ())
    ~merge:merge_sketch
    (fun ~size rng ->
      chunk_sketch ?compression ~size rng make_fill (fun _ _ -> ()))

(* [estimate_par_batched_col] and [sketch_par_col] on one fan-out: each
   chunk fills its column once and feeds it to both a Welford state and a
   sketch, and the pairs fold in chunk order, so both halves equal the
   separate calls bit for bit at half the sampling cost. *)
let estimate_quantiles_par ?pool ?compression ?chunks ~n ~seed ~ps make_fill =
  if n < 2 then invalid_arg "Mc.estimate_quantiles_par: n < 2";
  let acc, sk =
    Par.fan_out ?pool ?chunks ~name:"Mc.estimate_quantiles_par" ~n ~seed
      ~init:
        ( Numerics.Summary.Online.create (),
          Numerics.Sketch.create ?compression () )
      ~merge:(fun (acc, into) (chunk_acc, sk) ->
        (Numerics.Summary.Online.merge acc chunk_acc, merge_sketch into sk))
      (fun ~size rng ->
        let acc = Numerics.Summary.Online.create () in
        let sk =
          chunk_sketch ?compression ~size rng make_fill (fun col len ->
              Numerics.Summary.Online.add_column acc col ~pos:0 ~len)
        in
        (acc, sk))
  in
  (of_online acc n, Array.map (Numerics.Sketch.quantile sk) ps)

(* ------------------------------------------------------------------ *)
(* Importance sampling.

   Draws come from a proposal distribution and are reweighted by
   w(x) = target(x)/proposal(x); the per-chunk state is six running sums
   (n, Σw, Σw², Σwf, Σw²f, Σ(wf)²) plus the largest weight, which is
   enough to finalise both the plain estimator Σwf/n (unbiased when both
   densities are normalised) and the self-normalised ratio Σwf/Σw (exact
   normalising constants cancel), together with the ESS and
   weight-degeneracy diagnostics.  The sums are accumulated in local
   unboxed refs per chunk and merged by componentwise addition in chunk
   order, so the whole record is bit-identical at any domain count for a
   fixed (seed, chunks). *)

type is_estimate = {
  plain : estimate;
  self_norm : estimate;
  ess : float;
  max_weight_share : float;
  sum_weights : float;
}

type is_acc = {
  is_n : int;
  sw : float;
  sw2 : float;
  swf : float;
  sw2f : float;
  swf_2 : float;  (* Σ (w·f)² *)
  wmax : float;
}

let is_acc_zero =
  { is_n = 0; sw = 0.0; sw2 = 0.0; swf = 0.0; sw2f = 0.0; swf_2 = 0.0;
    wmax = 0.0 }

let is_acc_merge a b =
  {
    is_n = a.is_n + b.is_n;
    sw = a.sw +. b.sw;
    sw2 = a.sw2 +. b.sw2;
    swf = a.swf +. b.swf;
    sw2f = a.sw2f +. b.sw2f;
    swf_2 = a.swf_2 +. b.swf_2;
    wmax = Float.max a.wmax b.wmax;
  }

let is_finalize acc =
  let nf = float_of_int acc.is_n in
  let mean_p = acc.swf /. nf in
  let var_p =
    if acc.is_n > 1 then
      Float.max 0.0 ((acc.swf_2 -. (nf *. mean_p *. mean_p)) /. (nf -. 1.0))
    else 0.0
  in
  let se_p = sqrt (var_p /. nf) in
  let plain =
    {
      mean = mean_p;
      std_error = se_p;
      ci95_lo = mean_p -. (1.96 *. se_p);
      ci95_hi = mean_p +. (1.96 *. se_p);
      n = acc.is_n;
    }
  in
  (* Self-normalised mean with the delta-method variance
     Σ w²(f-μ)² / (Σw)², expanded over the accumulated sums. *)
  let mu = acc.swf /. acc.sw in
  let v =
    (acc.swf_2 -. (2.0 *. mu *. acc.sw2f) +. (mu *. mu *. acc.sw2))
    /. (acc.sw *. acc.sw)
  in
  let se_sn = sqrt (Float.max 0.0 v) in
  let self_norm =
    {
      mean = mu;
      std_error = se_sn;
      ci95_lo = mu -. (1.96 *. se_sn);
      ci95_hi = mu +. (1.96 *. se_sn);
      n = acc.is_n;
    }
  in
  {
    plain;
    self_norm;
    ess = acc.sw *. acc.sw /. acc.sw2;
    max_weight_share = acc.wmax /. acc.sw;
    sum_weights = acc.sw;
  }

let estimate_is_weighted ?pool ?chunks ~n ~seed ~proposal ~log_weight f =
  if n < 2 then invalid_arg "Mc.estimate_is: n < 2";
  let body ~size rng =
    if size = 0 then is_acc_zero
    else begin
      let seg = min size batch_size in
      with_scratch seg (fun col ->
          let buf = Numerics.Columns.unsafe_data col in
          let sw = ref 0.0 and sw2 = ref 0.0 and swf = ref 0.0 in
          let sw2f = ref 0.0 and swf_2 = ref 0.0 and wmax = ref 0.0 in
          let remaining = ref size in
          while !remaining > 0 do
            let len = min !remaining seg in
            Dist.sample_into_col proposal rng buf ~pos:0 ~len;
            for j = 0 to len - 1 do
              let x = Bigarray.Array1.unsafe_get buf j in
              let w = exp (log_weight x) in
              if not (Float.is_finite w) || w < 0.0 then
                invalid_arg
                  (Printf.sprintf "Mc.estimate_is: bad weight %g at %g" w x);
              let fx = f x in
              let wf = w *. fx in
              sw := !sw +. w;
              sw2 := !sw2 +. (w *. w);
              swf := !swf +. wf;
              sw2f := !sw2f +. (w *. wf);
              swf_2 := !swf_2 +. (wf *. wf);
              if w > !wmax then wmax := w
            done;
            remaining := !remaining - len
          done;
          { is_n = size; sw = !sw; sw2 = !sw2; swf = !swf; sw2f = !sw2f;
            swf_2 = !swf_2; wmax = !wmax })
    end
  in
  is_finalize
    (Par.fan_out ?pool ?chunks ~name:"Mc.estimate_is" ~n ~seed
       ~init:is_acc_zero ~merge:is_acc_merge body)

let estimate_is ?pool ?chunks ~n ~seed ~target ~proposal f =
  estimate_is_weighted ?pool ?chunks ~n ~seed ~proposal
    ~log_weight:(fun x ->
      target.Dist.log_pdf x -. proposal.Dist.log_pdf x)
    f

let probability_is ?pool ?chunks ~n ~seed ~target ~proposal event =
  estimate_is ?pool ?chunks ~n ~seed ~target ~proposal (fun x ->
      if event x then 1.0 else 0.0)

(* ------------------------------------------------------------------ *)
(* Quasi-Monte-Carlo: scrambled Sobol points with randomised replicates.
   Replicate r scrambles its net from stream r of the seed's fan-out, so
   the replicate means are i.i.d. unbiased estimates — their spread is an
   honest error bar — and the whole computation is a pure function of
   (seed, replicates, n, dim): the replicate, not the chunk, is the unit
   of parallel dispatch, merged in replicate order. *)

let estimate_qmc ?pool ?(replicates = 16) ~dim ~n ~seed f =
  if replicates < 2 then invalid_arg "Mc.estimate_qmc: replicates < 2";
  if n < 1 then invalid_arg "Mc.estimate_qmc: n < 1";
  let stream = Par.streams ~seed ~chunks:replicates in
  let body r =
    let sobol = Numerics.Sobol.create ~scramble:(stream r) ~dim () in
    let point = Stdlib.Float.Array.create dim (* lint: allow-floatarray *) in
    let acc = ref 0.0 in
    for _ = 1 to n do
      Numerics.Sobol.next sobol point;
      acc := !acc +. f point
    done;
    !acc /. float_of_int n
  in
  let acc =
    Par.parallel_for_reduce ?pool ~chunks:replicates
      ~init:(Numerics.Summary.Online.create ())
      ~body
      ~merge:(fun acc m ->
        Numerics.Summary.Online.add acc m;
        acc)
  in
  let e = of_online acc replicates in
  { e with n = replicates * n }

(* ------------------------------------------------------------------ *)
(* Stratified and antithetic wrappers over the batched uniform stream.
   Both express the integrand as a function of a single uniform (the
   quantile-transform view), which is what makes the draws strata-capable:
   chunk i stratifies its own share — slot j of a size-m chunk maps its
   uniform v to (j + v)/m — so the per-chunk streams stay pure functions
   of (seed, chunks, n) and the chunk-order Welford merge is unchanged. *)

let estimate_par_stratified ?pool ?chunks ~n ~seed f_of_u =
  if n < 2 then invalid_arg "Mc.estimate_par_stratified: n < 2";
  let total =
    welford_par ?pool ?chunks ~name:"Mc.estimate_par_stratified" ~n ~seed
      (fun acc ~size rng ->
        let m = float_of_int size in
        segments ~size (fun col ~start ~len ->
            let buf = Numerics.Columns.unsafe_data col in
            Numerics.Rng.fill_floats_col rng buf ~pos:0 ~len;
            for k = 0 to len - 1 do
              let u =
                (float_of_int (start + k) +. Bigarray.Array1.unsafe_get buf k)
                /. m
              in
              Bigarray.Array1.unsafe_set buf k (f_of_u u)
            done;
            Numerics.Summary.Online.add_column acc col ~pos:0 ~len))
  in
  of_online total n

let estimate_par_antithetic ?pool ?chunks ~n ~seed f_of_u =
  if n < 4 then invalid_arg "Mc.estimate_par_antithetic: n < 4";
  if n land 1 = 1 then invalid_arg "Mc.estimate_par_antithetic: n odd";
  let pairs = n / 2 in
  let total =
    welford_par ?pool ?chunks ~name:"Mc.estimate_par_antithetic" ~n:pairs
      ~seed (fun acc ~size rng ->
        segments ~size (fun col ~start:_ ~len ->
            let buf = Numerics.Columns.unsafe_data col in
            Numerics.Rng.fill_floats_col rng buf ~pos:0 ~len;
            for k = 0 to len - 1 do
              let v = Bigarray.Array1.unsafe_get buf k in
              (* One observation per pair: the mean of the mirrored draws
                 is itself i.i.d. across pairs, so the Welford CI stays
                 honest. *)
              Bigarray.Array1.unsafe_set buf k
                (0.5 *. (f_of_u v +. f_of_u (1.0 -. v)))
            done;
            Numerics.Summary.Online.add_column acc col ~pos:0 ~len))
  in
  let e = of_online total pairs in
  { e with n }

let within e x = x >= e.ci95_lo && x <= e.ci95_hi
