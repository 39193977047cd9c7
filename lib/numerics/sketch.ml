(* Merging t-digest (Dunning & Ertl, "Computing extremely accurate
   quantiles using t-digests").  Incoming points accumulate in a fixed
   buffer; a flush sorts the buffer, merges it with the existing centroid
   list (both sorted by mean), and recompresses greedily under the k1
   scale function k(q) = δ/2π·asin(2q−1).  Everything is a deterministic
   function of the insertion/merge history: the buffer sorts in the
   [Float.compare] order, merging breaks ties by provenance (existing
   centroids first), and the greedy compression scans left to right.

   The buffer and the centroids live in unboxed columns ([Columns.t]).
   A flush sorts the buffer in place with [Columns.sort] (no copy, no
   boxed compare), and the merge step writes into a pair of scratch
   columns kept per domain: once one merge input is exhausted the
   other's tail is moved with a single [Columns.blit], and flushes and
   merges recycle the scratch instead of allocating per merge.
   Distinct floats that compare equal ([-0.] and [0.]) may land in
   either order in the sorted buffer; every other input orders exactly
   as a comparison sort would. *)

type t = {
  compression : float;
  c_mean : Columns.t;  (* centroid means, ascending; length = centroid count *)
  c_weight : Columns.t;
  mutable c_total : float;  (* total weight held in centroids *)
  buf : Columns.t;  (* unsummarised points, in [0, n_buf) *)
  mutable n_buf : int;
  mutable lo : float;  (* exact stream minimum *)
  mutable hi : float;  (* exact stream maximum *)
}

let create ?(compression = 200.0) () =
  if not (compression >= 10.0) then
    invalid_arg "Sketch.create: compression < 10";
  let cap = 1 + int_of_float (ceil (compression /. 2.0)) in
  {
    compression;
    c_mean = Columns.create ~capacity:cap ();
    c_weight = Columns.create ~capacity:cap ();
    c_total = 0.0;
    buf = Columns.create ~capacity:(4 * int_of_float (ceil compression)) ();
    n_buf = 0;
    lo = infinity;
    hi = neg_infinity;
  }

let compression t = t.compression
let n_c t = Columns.length t.c_mean
let count t = int_of_float t.c_total + t.n_buf

let check_nonempty name t =
  if count t = 0 then invalid_arg (name ^ ": empty sketch")

let minimum t =
  check_nonempty "Sketch.minimum" t;
  t.lo

let maximum t =
  check_nonempty "Sketch.maximum" t;
  t.hi

let two_pi = 2.0 *. Special.pi
let k_of_q t q = t.compression /. two_pi *. asin ((2.0 *. q) -. 1.0)

let q_limit_after t q =
  let k = k_of_q t q +. 1.0 in
  if k >= t.compression /. 4.0 then 1.0
  else 0.5 *. (sin (two_pi *. k /. t.compression) +. 1.0)

(* Merge scratch: one (mean, weight) column pair per domain, grown
   geometrically.  A flush or merge writes every slot it reads and calls
   nothing that could reach another sketch meanwhile, so the sketches of
   one domain can share it; sharing keeps each sketch at three columns,
   which matters when a fan-out holds one sketch per chunk live at once. *)
type scratch = { mutable s_mean : Columns.t; mutable s_weight : Columns.t }

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        s_mean = Columns.create ~capacity:0 ();
        s_weight = Columns.create ~capacity:0 ();
      })

(* [scratch m] — the calling domain's scratch pair, [m] long. *)
let scratch m =
  let sc = Domain.DLS.get scratch_key in
  if Columns.capacity sc.s_mean < m then begin
    let capacity = max m (2 * Columns.capacity sc.s_mean) in
    sc.s_mean <- Columns.create ~capacity ();
    sc.s_weight <- Columns.create ~capacity ()
  end;
  Columns.set_length sc.s_mean m;
  Columns.set_length sc.s_weight m;
  sc

(* Greedily recompress the merged, mean-sorted (mean, weight) sequence
   held in the scratch pair [sc] into [t]'s centroid columns.
   Output size is bounded by the scale function at ≈ δ/2 + 1 centroids.
   The fp sequence is identical to the historical array implementation,
   so centroid states are bit-identical across the columnar migration. *)
let compress_scratch t sc total =
  let m = Columns.length sc.s_mean in
  Columns.clear t.c_mean;
  Columns.clear t.c_weight;
  if m > 0 then begin
    let sm = Columns.unsafe_data sc.s_mean in
    let sw = Columns.unsafe_data sc.s_weight in
    let emit mean weight =
      Columns.push t.c_mean mean;
      Columns.push t.c_weight weight
    in
    let cur_mean = ref (Bigarray.Array1.get sm 0) in
    let cur_w = ref (Bigarray.Array1.get sw 0) in
    let w_done = ref 0.0 in
    let q_limit = ref (q_limit_after t 0.0) in
    for i = 1 to m - 1 do
      let mean = Bigarray.Array1.unsafe_get sm i in
      let w = Bigarray.Array1.unsafe_get sw i in
      if (!w_done +. !cur_w +. w) /. total <= !q_limit then begin
        (* Weighted-mean absorption; deterministic fp sequence. *)
        let w' = !cur_w +. w in
        cur_mean := !cur_mean +. ((mean -. !cur_mean) *. (w /. w'));
        cur_w := w'
      end
      else begin
        emit !cur_mean !cur_w;
        w_done := !w_done +. !cur_w;
        q_limit := q_limit_after t (!w_done /. total);
        cur_mean := mean;
        cur_w := w
      end
    done;
    emit !cur_mean !cur_w
  end;
  t.c_total <- total

let flush t =
  if t.n_buf > 0 then begin
    Columns.set_length t.buf t.n_buf;
    Columns.sort t.buf;
    let b = Columns.unsafe_data t.buf in
    let nc = n_c t in
    let m = nc + t.n_buf in
    let sc = scratch m in
    let sm = Columns.unsafe_data sc.s_mean in
    let sw = Columns.unsafe_data sc.s_weight in
    let cm = Columns.unsafe_data t.c_mean in
    let cw = Columns.unsafe_data t.c_weight in
    (* Two-pointer merge of the sorted centroid list with the sorted
       buffer; ties take the existing centroid first (a fixed rule, for
       determinism). *)
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < nc || !j < t.n_buf do
      let take_centroid =
        !i < nc
        && (!j >= t.n_buf
            || Float.compare
                 (Bigarray.Array1.unsafe_get cm !i)
                 (Bigarray.Array1.unsafe_get b !j)
               <= 0)
      in
      if take_centroid then begin
        Bigarray.Array1.unsafe_set sm !k (Bigarray.Array1.unsafe_get cm !i);
        Bigarray.Array1.unsafe_set sw !k (Bigarray.Array1.unsafe_get cw !i);
        incr i
      end
      else begin
        Bigarray.Array1.unsafe_set sm !k (Bigarray.Array1.unsafe_get b !j);
        Bigarray.Array1.unsafe_set sw !k 1.0;
        incr j
      end;
      incr k
    done;
    let total = t.c_total +. float_of_int t.n_buf in
    t.n_buf <- 0;
    compress_scratch t sc total
  end

let add t x =
  if x <> x then invalid_arg "Sketch.add: NaN";
  if x < t.lo then t.lo <- x;
  if x > t.hi then t.hi <- x;
  Bigarray.Array1.unsafe_set (Columns.unsafe_data t.buf) t.n_buf x;
  t.n_buf <- t.n_buf + 1;
  if t.n_buf = Columns.capacity t.buf then flush t

(* [add] once per element, a buffer's worth at a time: the slice is
   copied into the buffer with the running min/max in unboxed locals,
   and the buffer flushes whenever it fills, exactly where [add] would.
   A NaN raises [add]'s error with the elements before it added. *)
let add_column t col ~pos ~len =
  if pos < 0 || len < 0 || len > Columns.length col - pos then
    invalid_arg "Sketch.add_column";
  let src = Columns.unsafe_data col in
  let dst = Columns.unsafe_data t.buf in
  let cap = Columns.capacity t.buf in
  let i = ref pos and stop = pos + len in
  while !i < stop do
    let n0 = t.n_buf and from = !i in
    let upto = from + min (stop - from) (cap - n0) in
    let lo = ref t.lo and hi = ref t.hi in
    while
      !i < upto
      && Bigarray.Array1.unsafe_get src !i = Bigarray.Array1.unsafe_get src !i
    do
      let x = Bigarray.Array1.unsafe_get src !i in
      if x < !lo then lo := x;
      if x > !hi then hi := x;
      Bigarray.Array1.unsafe_set dst (n0 + !i - from) x;
      incr i
    done;
    t.lo <- !lo;
    t.hi <- !hi;
    t.n_buf <- n0 + !i - from;
    if !i < upto then invalid_arg "Sketch.add: NaN";
    if t.n_buf = cap then flush t
  done

let centroid_count t =
  flush t;
  n_c t

(* Piecewise-linear interpolation through the cumulative-weight anchors
   (0, lo), (W_i + w_i/2, mean_i), (total, hi): the standard t-digest
   mid-rank convention. *)
let quantile t p =
  check_nonempty "Sketch.quantile" t;
  if p < 0.0 || p > 1.0 then invalid_arg "Sketch.quantile: p not in [0,1]";
  flush t;
  let total = t.c_total in
  let target = p *. total in
  let nc = n_c t in
  let mean i = Columns.get t.c_mean i in
  let weight i = Columns.get t.c_weight i in
  if nc = 1 then
    if target <= total /. 2.0 then
      t.lo +. (target /. (total /. 2.0) *. (mean 0 -. t.lo))
    else mean 0 +. ((target -. (total /. 2.0)) /. (total /. 2.0) *. (t.hi -. mean 0))
  else begin
    (* Walk the anchors; the centroid count is O(compression), so a scan
       is fine. *)
    let rank = ref (weight 0 /. 2.0) in
    if target <= !rank then
      if !rank <= 0.0 then t.lo
      else t.lo +. (target /. !rank *. (mean 0 -. t.lo))
    else begin
      let result = ref nan in
      let i = ref 0 in
      while Float.is_nan !result && !i < nc - 1 do
        let step = (weight !i +. weight (!i + 1)) /. 2.0 in
        if target <= !rank +. step then begin
          let frac = if step <= 0.0 then 0.0 else (target -. !rank) /. step in
          result := mean !i +. (frac *. (mean (!i + 1) -. mean !i))
        end
        else begin
          rank := !rank +. step;
          incr i
        end
      done;
      if Float.is_nan !result then begin
        let step = weight (nc - 1) /. 2.0 in
        let frac =
          if step <= 0.0 then 1.0 else min 1.0 ((target -. !rank) /. step)
        in
        result := mean (nc - 1) +. (frac *. (t.hi -. mean (nc - 1)))
      end;
      !result
    end
  end

let cdf t x =
  check_nonempty "Sketch.cdf" t;
  if x <> x then invalid_arg "Sketch.cdf: NaN";
  flush t;
  if x < t.lo then 0.0
  else if x >= t.hi then 1.0
  else begin
    let total = t.c_total in
    let nc = n_c t in
    let mean i = Columns.get t.c_mean i in
    let weight i = Columns.get t.c_weight i in
    if nc = 1 then
      (* Single centroid: interpolate lo -> mean -> hi. *)
      if x < mean 0 then
        let span = mean 0 -. t.lo in
        if span <= 0.0 then 0.5 else 0.5 *. ((x -. t.lo) /. span)
      else
        let span = t.hi -. mean 0 in
        if span <= 0.0 then 0.5 else 0.5 +. (0.5 *. ((x -. mean 0) /. span))
    else if x < mean 0 then begin
      let span = mean 0 -. t.lo in
      let half = weight 0 /. 2.0 in
      if span <= 0.0 then 0.0 else (x -. t.lo) /. span *. half /. total
    end
    else if x >= mean (nc - 1) then begin
      let span = t.hi -. mean (nc - 1) in
      let half = weight (nc - 1) /. 2.0 in
      if span <= 0.0 then 1.0 -. (half /. total)
      else
        1.0 -. (half /. total) +. ((x -. mean (nc - 1)) /. span *. half /. total)
    end
    else begin
      (* Between centroid means: accumulate mid-rank anchors. *)
      let rank = ref (weight 0 /. 2.0) in
      let i = ref 0 in
      while x >= mean (!i + 1) do
        rank := !rank +. ((weight !i +. weight (!i + 1)) /. 2.0);
        incr i
      done;
      let span = mean (!i + 1) -. mean !i in
      let step = (weight !i +. weight (!i + 1)) /. 2.0 in
      let frac = if span <= 0.0 then 0.0 else (x -. mean !i) /. span in
      (!rank +. (frac *. step)) /. total
    end
  end

(* Two-pointer merge of [a]'s and [b]'s centroid columns into the
   domain's scratch pair, returned with length [n_c a + n_c b]; once one
   side is exhausted the other's tail is moved with a single blit.  Tie
   rule: [a] first (same provenance rule as flush). *)
let merge_centroids a b =
  let na = n_c a and nb = n_c b in
  let sc = scratch (na + nb) in
  let sm = Columns.unsafe_data sc.s_mean in
  let sw = Columns.unsafe_data sc.s_weight in
  let am = Columns.unsafe_data a.c_mean and aw = Columns.unsafe_data a.c_weight in
  let bm = Columns.unsafe_data b.c_mean and bw = Columns.unsafe_data b.c_weight in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na && !j < nb do
    if
      Float.compare
        (Bigarray.Array1.unsafe_get am !i)
        (Bigarray.Array1.unsafe_get bm !j)
      <= 0
    then begin
      Bigarray.Array1.unsafe_set sm !k (Bigarray.Array1.unsafe_get am !i);
      Bigarray.Array1.unsafe_set sw !k (Bigarray.Array1.unsafe_get aw !i);
      incr i
    end
    else begin
      Bigarray.Array1.unsafe_set sm !k (Bigarray.Array1.unsafe_get bm !j);
      Bigarray.Array1.unsafe_set sw !k (Bigarray.Array1.unsafe_get bw !j);
      incr j
    end;
    incr k
  done;
  if !i < na then begin
    Columns.blit ~src:a.c_mean ~src_pos:!i ~dst:sc.s_mean ~dst_pos:!k
      ~len:(na - !i);
    Columns.blit ~src:a.c_weight ~src_pos:!i ~dst:sc.s_weight ~dst_pos:!k
      ~len:(na - !i)
  end
  else if !j < nb then begin
    Columns.blit ~src:b.c_mean ~src_pos:!j ~dst:sc.s_mean ~dst_pos:!k
      ~len:(nb - !j);
    Columns.blit ~src:b.c_weight ~src_pos:!j ~dst:sc.s_weight ~dst_pos:!k
      ~len:(nb - !j)
  end;
  sc

let merge a b =
  if a.compression <> b.compression then
    invalid_arg "Sketch.merge: compression mismatch";
  flush a;
  flush b;
  let t = create ~compression:a.compression () in
  t.lo <- min a.lo b.lo;
  t.hi <- max a.hi b.hi;
  let sc = merge_centroids a b in
  if Columns.length sc.s_mean > 0 then
    compress_scratch t sc (a.c_total +. b.c_total);
  t

let merge_into ~into src =
  if into.compression <> src.compression then
    invalid_arg "Sketch.merge_into: compression mismatch";
  flush into;
  flush src;
  into.lo <- min into.lo src.lo;
  into.hi <- max into.hi src.hi;
  let sc = merge_centroids into src in
  let total = into.c_total +. src.c_total in
  if Columns.length sc.s_mean > 0 then compress_scratch into sc total
  else into.c_total <- total

(* Snapshot seam: the summarised state as named columns ("mean",
   "weight", and a 4-slot "meta" of compression/total/lo/hi).  [flush]
   runs first, so the buffer is empty and the round-trip is exact. *)
let to_columns t =
  flush t;
  let meta = Columns.of_array [| t.compression; t.c_total; t.lo; t.hi |] in
  [ ("mean", t.c_mean); ("weight", t.c_weight); ("meta", meta) ]

let of_columns cols =
  let mean = Columns.find cols "mean" in
  let weight = Columns.find cols "weight" in
  let meta = Columns.find cols "meta" in
  if Columns.length meta <> 4 then
    failwith "Sketch.of_columns: meta column must have 4 entries";
  if Columns.length mean <> Columns.length weight then
    failwith "Sketch.of_columns: mean/weight length mismatch";
  let t = create ~compression:(Columns.get meta 0) () in
  Columns.iter (Columns.push t.c_mean) mean;
  Columns.iter (Columns.push t.c_weight) weight;
  t.c_total <- Columns.get meta 1;
  t.lo <- Columns.get meta 2;
  t.hi <- Columns.get meta 3;
  t
