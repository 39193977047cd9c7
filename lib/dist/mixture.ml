type component = Atom of float | Cont of Base.t

(* Structure-of-arrays layout: the construction view [parts] is kept for
   the (weight, component) API, but the sampling hot path reads parallel
   unboxed columns — [cum] for the selection binary search, [atoms] for
   point-mass locations — plus a flat [comps] array (one indirection per
   slot instead of a tuple chase).  [all_atoms] gates a fully columnar
   resolve loop with no per-slot variant match. *)
type t = {
  parts : (float * component) array;
  comps : component array;
  weights : Numerics.Columns.t;
  cum : Numerics.Columns.t;  (* cumulative weights; last entry pinned 1.0 *)
  atoms : Numerics.Columns.t;  (* Atom location per slot; 0.0 for Cont *)
  all_atoms : bool;
}

(* Cumulative-weight table for O(log k) sampling.  The final entry is
   pinned to 1.0 so floating-point drift in the running sum can never push
   mass past the table (nor silently inflate the last component). *)
let of_parts parts =
  let k = Array.length parts in
  let cum = Numerics.Columns.make k 1.0 in
  let acc = ref 0.0 in
  for i = 0 to k - 2 do
    acc := !acc +. fst parts.(i);
    Numerics.Columns.set cum i !acc
  done;
  let weights = Numerics.Columns.make k 0.0 in
  let atoms = Numerics.Columns.make k 0.0 in
  let comps = Array.map snd parts in
  let all_atoms = ref true in
  Array.iteri
    (fun i (w, c) ->
      Numerics.Columns.set weights i w;
      match c with
      | Atom a -> Numerics.Columns.set atoms i a
      | Cont _ -> all_atoms := false)
    parts;
  { parts; comps; weights; cum; atoms; all_atoms = !all_atoms }

let make components =
  if components = [] then invalid_arg "Mixture.make: no components";
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 components in
  if total <= 0.0 then invalid_arg "Mixture.make: weights sum to zero";
  if abs_float (total -. 1.0) > 1e-9 then
    invalid_arg "Mixture.make: weights must sum to 1";
  List.iter
    (fun (w, _) -> if w < 0.0 then invalid_arg "Mixture.make: negative weight")
    components;
  let parts =
    components
    |> List.filter (fun (w, _) -> w > 0.0)
    |> List.map (fun (w, c) -> (w /. total, c))
    |> Array.of_list
  in
  of_parts parts

let of_dist d = of_parts [| (1.0, Cont d) |]
let atom x = of_parts [| (1.0, Atom x) |]
let components t = Array.to_list t.parts

let with_perfection ~p0 t =
  if p0 < 0.0 || p0 >= 1.0 then
    invalid_arg "Mixture.with_perfection: p0 not in [0,1)";
  if p0 = 0.0 then t
  else begin
    let scaled =
      Array.to_list t.parts |> List.map (fun (w, c) -> (w *. (1.0 -. p0), c))
    in
    make ((p0, Atom 0.0) :: scaled)
  end

let prob_le t x =
  Array.fold_left
    (fun acc (w, c) ->
      match c with
      | Atom a -> if a <= x then acc +. w else acc
      | Cont d -> acc +. (w *. d.Base.cdf x))
    0.0 t.parts

let prob_lt t x =
  Array.fold_left
    (fun acc (w, c) ->
      match c with
      | Atom a -> if a < x then acc +. w else acc
      | Cont d -> acc +. (w *. d.Base.cdf x))
    0.0 t.parts

let expect t f =
  Array.fold_left
    (fun acc (w, c) ->
      match c with
      | Atom a -> acc +. (w *. f a)
      | Cont d -> acc +. (w *. Base.expect d f))
    0.0 t.parts

let mean t =
  Array.fold_left
    (fun acc (w, c) ->
      match c with
      | Atom a -> acc +. (w *. a)
      | Cont d -> acc +. (w *. d.Base.mean))
    0.0 t.parts

let variance t =
  let m = mean t in
  let second =
    Array.fold_left
      (fun acc (w, c) ->
        match c with
        | Atom a -> acc +. (w *. a *. a)
        | Cont d ->
          acc +. (w *. (d.Base.variance +. (d.Base.mean *. d.Base.mean))))
      0.0 t.parts
  in
  max 0.0 (second -. (m *. m))

let support t =
  Array.fold_left
    (fun (lo, hi) (_, c) ->
      match c with
      | Atom a -> (min lo a, max hi a)
      | Cont d ->
        let dlo, dhi = d.Base.support in
        (min lo dlo, max hi dhi))
    (infinity, neg_infinity)
    t.parts

let atom_weight t x =
  Array.fold_left
    (fun acc (w, c) -> match c with Atom a when a = x -> acc +. w | _ -> acc)
    0.0 t.parts

let quantile t p =
  Base.check_prob p;
  let lo, hi = support t in
  if lo = hi then lo
  else begin
    (* The CDF may have jumps (atoms); bisect for the generalized inverse
       inf { x : F(x) >= p }. *)
    let lo = ref lo and hi = ref hi in
    (* Widen the finite endpoints slightly so that F(lo) < p <= F(hi). *)
    if Float.is_finite !lo then lo := !lo -. (1e-12 +. (1e-12 *. abs_float !lo))
    else lo := -1e300;
    if not (Float.is_finite !hi) then begin
      (* Find a finite upper point with F >= p. *)
      let x = ref (max 1.0 (abs_float !lo)) in
      while prob_le t !x < p do
        x := !x *. 2.0
      done;
      hi := !x
    end;
    for _ = 1 to 200 do
      let mid = 0.5 *. (!lo +. !hi) in
      if prob_le t mid >= p then hi := mid else lo := mid
    done;
    !hi
  end

let credible_interval t ~level =
  if not (level > 0.0 && level < 1.0) then
    invalid_arg "Mixture.credible_interval: level must be in (0,1)";
  let tail = 0.5 *. (1.0 -. level) in
  (quantile t tail, quantile t (1.0 -. tail))

let sample t rng =
  let u = Numerics.Rng.float rng in
  (* Binary search for the smallest i with u < cum.(i); u < 1 = cum.(k-1)
     guarantees a hit, so no fallback clause is needed. *)
  let cum = Numerics.Columns.unsafe_data t.cum in
  let lo = ref 0 and hi = ref (Numerics.Columns.length t.cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if u < Bigarray.Array1.unsafe_get cum mid then hi := mid else lo := mid + 1
  done;
  match Array.unsafe_get t.comps !lo with
  | Atom a -> a
  | Cont d -> d.Base.sample rng

(* Batched sampling.  The draw scheme deliberately differs from repeated
   [sample] (which interleaves a selection uniform and the component draws
   per sample): a single-component mixture skips selection entirely and
   delegates to the component's batch kernel, and a multi-component
   mixture first fills the destination segment with the [len] selection
   uniforms, then resolves each slot in order — atoms in place, continuous
   components by a scalar draw.  The scheme is still a pure function of
   (rng state, t, len), which is what the parallel determinism contract
   needs; it is simply a different — faster — stream than the scalar
   path's.

   The k >= 3 resolve loop binary-searches the [cum] column; when every
   component is an atom, resolution is a pure column-to-column gather
   with no variant match at all. *)
let sample_into_col t rng (buf : Numerics.Columns.ba) ~pos ~len =
  if pos < 0 || len < 0 || len > Bigarray.Array1.dim buf - pos then
    invalid_arg "Mixture.sample_into_col";
  let k = Array.length t.comps in
  if k = 1 then
    match t.comps.(0) with
    | Atom a ->
      for i = pos to pos + len - 1 do
        Bigarray.Array1.unsafe_set buf i a
      done
    | Cont d -> Base.sample_into_col d rng buf ~pos ~len
  else if k = 2 then begin
    (* Two components — the §3.4 worst-case belief shape, the hottest
       mixture on the Monte-Carlo path.  One comparison replaces the
       binary search; the selection decisions (u < cum.(0)) and draw order
       are exactly those of the general branch below, so both branches
       produce the same stream. *)
    Numerics.Rng.fill_floats_col rng buf ~pos ~len;
    let c0 = Numerics.Columns.get t.cum 0 in
    match (t.comps.(0), t.comps.(1)) with
    | Atom a0, Atom a1 ->
      for i = pos to pos + len - 1 do
        Bigarray.Array1.unsafe_set buf i
          (if Bigarray.Array1.unsafe_get buf i < c0 then a0 else a1)
      done
    | p0, p1 ->
      for i = pos to pos + len - 1 do
        let u = Bigarray.Array1.unsafe_get buf i in
        match if u < c0 then p0 else p1 with
        | Atom a -> Bigarray.Array1.unsafe_set buf i a
        | Cont d -> Bigarray.Array1.unsafe_set buf i (d.Base.sample rng)
      done
  end
  else begin
    Numerics.Rng.fill_floats_col rng buf ~pos ~len;
    let cum = Numerics.Columns.unsafe_data t.cum in
    if t.all_atoms then begin
      let atoms = Numerics.Columns.unsafe_data t.atoms in
      for i = pos to pos + len - 1 do
        let u = Bigarray.Array1.unsafe_get buf i in
        let lo = ref 0 and hi = ref (k - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if u < Bigarray.Array1.unsafe_get cum mid then hi := mid
          else lo := mid + 1
        done;
        Bigarray.Array1.unsafe_set buf i (Bigarray.Array1.unsafe_get atoms !lo)
      done
    end
    else
      for i = pos to pos + len - 1 do
        let u = Bigarray.Array1.unsafe_get buf i in
        let lo = ref 0 and hi = ref (k - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if u < Bigarray.Array1.unsafe_get cum mid then hi := mid
          else lo := mid + 1
        done;
        match Array.unsafe_get t.comps !lo with
        | Atom a -> Bigarray.Array1.unsafe_set buf i a
        | Cont d -> Bigarray.Array1.unsafe_set buf i (d.Base.sample rng)
      done
  end

let cum_col t = t.cum

let scale_weights t f =
  let scaled =
    Array.map
      (fun (w, c) ->
        let factor = f c in
        if factor < 0.0 || not (Float.is_finite factor) then
          invalid_arg "Mixture.scale_weights: factor must be finite and >= 0";
        (w *. factor, c))
      t.parts
  in
  let z = Array.fold_left (fun acc (w, _) -> acc +. w) 0.0 scaled in
  if z <= 0.0 then invalid_arg "Mixture.scale_weights: all mass vanished";
  let parts =
    Array.to_list scaled
    |> List.filter (fun (w, _) -> w > 0.0)
    |> List.map (fun (w, c) -> (w /. z, c))
    |> Array.of_list
  in
  (of_parts parts, z)

let name t =
  let part_name (w, c) =
    match c with
    | Atom a -> Printf.sprintf "%.4g*delta(%g)" w a
    | Cont d -> Printf.sprintf "%.4g*%s" w d.Base.name
  in
  Array.to_list t.parts |> List.map part_name |> String.concat " + "
