(* Scalar references for the batched Monte-Carlo kernels.

   Each batched kernel in the library writes into a column what a fixed
   sequence of scalar calls would produce.  These references spell that
   sequence out with scalar calls only, so the kernels are checked
   against their specification rather than against each other:

   - [mixture_stream]: the draw scheme of [Mixture.sample_into_col];
   - [estimate_par]: the scalar Welford fan-out that
     [Mc.estimate_par_batched_col] over [Mc.fill_col_of_scalar] equals;
   - [sketch_fan_out]: the per-chunk streams and chunk-order merge of
     [Mc.sketch_par_col]. *)

(* [mixture_stream t rng len] — [len] draws in the batched mixture scheme.
   A single component is a scalar loop (an atom repeats its value, a
   continuous component draws [sample] per slot).  Otherwise all [len]
   selection uniforms come first, then each slot resolves in order to the
   first component whose cumulative weight exceeds its uniform (the last
   component when none does): an atom gives its value, a continuous
   component one [sample] draw. *)
let mixture_stream t rng len =
  let comps = Array.of_list (List.map snd (Dist.Mixture.components t)) in
  let k = Array.length comps in
  let draw = function
    | Dist.Mixture.Atom a -> a
    | Dist.Mixture.Cont d -> d.Dist.sample rng
  in
  if k = 1 then Array.init len (fun _ -> draw comps.(0))
  else begin
    let cum = Numerics.Columns.to_array (Dist.Mixture.cum_col t) in
    let us = Array.init len (fun _ -> Numerics.Rng.float rng) in
    Array.map
      (fun u ->
        let i = ref 0 in
        while !i < k - 1 && not (u < cum.(!i)) do
          incr i
        done;
        draw comps.(!i))
      us
  end

(* [estimate_par ?pool ?chunks ~n ~seed f] — the parallel mean of [n]
   scalar draws under [Parallel.fan_out]: chunk [i] adds [f rng] one value
   at a time to a fresh Welford state, drawing from stream [i], and the
   states merge in chunk order.  [n >= 2]. *)
let estimate_par ?pool ?chunks ~n ~seed f =
  if n < 2 then invalid_arg "Mc_oracle.estimate_par: n < 2";
  let module O = Numerics.Summary.Online in
  let acc =
    Numerics.Parallel.fan_out ?pool ?chunks ~name:"Mc_oracle.estimate_par" ~n
      ~seed ~init:(O.create ()) ~merge:O.merge (fun ~size rng ->
        let acc = O.create () in
        for _ = 1 to size do
          O.add acc (f rng)
        done;
        acc)
  in
  let mean = O.mean acc in
  let std_error = O.std acc /. sqrt (float_of_int n) in
  { Sim.Mc.mean;
    std_error;
    ci95_lo = mean -. (1.96 *. std_error);
    ci95_hi = mean +. (1.96 *. std_error);
    n }

(* [sketch_fan_out ?compression ~chunks ~n ~seed f] — chunk [i] adds
   [f rng] one value at a time for its share of [n], drawing from stream
   [i] of [Rng.split_n (Rng.create seed) chunks]; the chunk sketches fold
   into an empty one with [Sketch.merge], in chunk order. *)
let sketch_fan_out ?compression ~chunks ~n ~seed f =
  let sizes = Numerics.Parallel.chunk_sizes ~n ~chunks in
  let streams = Numerics.Rng.split_n (Numerics.Rng.create seed) chunks in
  let acc = ref (Numerics.Sketch.create ?compression ()) in
  for i = 0 to chunks - 1 do
    let rng = Numerics.Rng.copy streams.(i) in
    let sk = Numerics.Sketch.create ?compression () in
    for _ = 1 to sizes.(i) do
      Numerics.Sketch.add sk (f rng)
    done;
    acc := Numerics.Sketch.merge !acc sk
  done;
  !acc
