(* Reference for the t-digest buffer: [Numerics.Sketch] as it was when a
   flush copied the buffer with [Array.sub] and sorted it with
   [Array.sort Float.compare], and [add_column] called [add] once per
   element.  Everything after the sort — the merge with the centroids,
   the greedy recompression, [merge_into] — is the library's algorithm
   spelled out again, so a state can be compared field for field. *)

module Columns = Numerics.Columns
module Special = Numerics.Special

type t = {
  compression : float;
  c_mean : Columns.t;  (* centroid means, ascending; length = centroid count *)
  c_weight : Columns.t;
  mutable c_total : float;  (* total weight held in centroids *)
  buf : float array;  (* unsummarised points *)
  mutable n_buf : int;
  mutable lo : float;  (* exact stream minimum *)
  mutable hi : float;  (* exact stream maximum *)
  scratch_mean : Columns.t;  (* reusable merge scratch *)
  scratch_weight : Columns.t;
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
    buf = Array.make (4 * int_of_float (ceil compression)) 0.0;
    n_buf = 0;
    lo = infinity;
    hi = neg_infinity;
    scratch_mean = Columns.create ~capacity:cap ();
    scratch_weight = Columns.create ~capacity:cap ();
  }

let compression t = t.compression
let n_c t = Columns.length t.c_mean
let count t = int_of_float t.c_total + t.n_buf
let two_pi = 2.0 *. Special.pi
let k_of_q t q = t.compression /. two_pi *. asin ((2.0 *. q) -. 1.0)

let q_limit_after t q =
  let k = k_of_q t q +. 1.0 in
  if k >= t.compression /. 4.0 then 1.0
  else 0.5 *. (sin (two_pi *. k /. t.compression) +. 1.0)

(* Greedily recompress the merged, mean-sorted (mean, weight) sequence
   held in the scratch columns (length [m]) into [t]'s centroid columns.
   Output size is bounded by the scale function at ≈ δ/2 + 1 centroids.
   The fp sequence is identical to the historical array implementation,
   so centroid states are bit-identical across the columnar migration. *)
let compress_scratch t m total =
  Columns.clear t.c_mean;
  Columns.clear t.c_weight;
  if m > 0 then begin
    let sm = Columns.unsafe_data t.scratch_mean in
    let sw = Columns.unsafe_data t.scratch_weight in
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

let scratch_reserve t m =
  Columns.clear t.scratch_mean;
  Columns.clear t.scratch_weight;
  (* Grow by appending then rewinding: scratch stays a plain growable
     column but the merge loops below can write through [unsafe_data]. *)
  if Columns.capacity t.scratch_mean < m then begin
    Columns.append_array t.scratch_mean (Array.make m 0.0);
    Columns.clear t.scratch_mean;
    Columns.append_array t.scratch_weight (Array.make m 0.0);
    Columns.clear t.scratch_weight
  end

let flush t =
  if t.n_buf > 0 then begin
    let b = Array.sub t.buf 0 t.n_buf in
    Array.sort Float.compare b;
    let nc = n_c t in
    let m = nc + t.n_buf in
    scratch_reserve t m;
    let sm = Columns.unsafe_data t.scratch_mean in
    let sw = Columns.unsafe_data t.scratch_weight in
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
            || Float.compare (Bigarray.Array1.unsafe_get cm !i) b.(!j) <= 0)
      in
      if take_centroid then begin
        Bigarray.Array1.unsafe_set sm !k (Bigarray.Array1.unsafe_get cm !i);
        Bigarray.Array1.unsafe_set sw !k (Bigarray.Array1.unsafe_get cw !i);
        incr i
      end
      else begin
        Bigarray.Array1.unsafe_set sm !k b.(!j);
        Bigarray.Array1.unsafe_set sw !k 1.0;
        incr j
      end;
      incr k
    done;
    Columns.set_length t.scratch_mean m;
    Columns.set_length t.scratch_weight m;
    let total = t.c_total +. float_of_int t.n_buf in
    t.n_buf <- 0;
    compress_scratch t m total
  end

let add t x =
  if x <> x then invalid_arg "Sketch.add: NaN";
  if x < t.lo then t.lo <- x;
  if x > t.hi then t.hi <- x;
  t.buf.(t.n_buf) <- x;
  t.n_buf <- t.n_buf + 1;
  if t.n_buf = Array.length t.buf then flush t

let add_column t col ~pos ~len =
  if pos < 0 || len < 0 || len > Columns.length col - pos then
    invalid_arg "Sketch.add_column";
  let d = Columns.unsafe_data col in
  for i = pos to pos + len - 1 do
    add t (Bigarray.Array1.unsafe_get d i)
  done

(* Two-pointer merge of [a]'s and [b]'s centroid columns into [dst]'s
   scratch; once one side is exhausted the other's tail is moved with a
   single blit.  Tie rule: [a] first (same provenance rule as flush). *)
let merge_centroids_into_scratch dst a b =
  let na = n_c a and nb = n_c b in
  let m = na + nb in
  scratch_reserve dst m;
  Columns.set_length dst.scratch_mean m;
  Columns.set_length dst.scratch_weight m;
  let sm = Columns.unsafe_data dst.scratch_mean in
  let sw = Columns.unsafe_data dst.scratch_weight in
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
    Columns.blit ~src:a.c_mean ~src_pos:!i ~dst:dst.scratch_mean ~dst_pos:!k
      ~len:(na - !i);
    Columns.blit ~src:a.c_weight ~src_pos:!i ~dst:dst.scratch_weight
      ~dst_pos:!k ~len:(na - !i)
  end
  else if !j < nb then begin
    Columns.blit ~src:b.c_mean ~src_pos:!j ~dst:dst.scratch_mean ~dst_pos:!k
      ~len:(nb - !j);
    Columns.blit ~src:b.c_weight ~src_pos:!j ~dst:dst.scratch_weight
      ~dst_pos:!k ~len:(nb - !j)
  end;
  m

let merge_into ~into src =
  if into.compression <> src.compression then
    invalid_arg "Sketch.merge_into: compression mismatch";
  flush into;
  flush src;
  into.lo <- min into.lo src.lo;
  into.hi <- max into.hi src.hi;
  let m = merge_centroids_into_scratch into into src in
  let total = into.c_total +. src.c_total in
  if m > 0 then compress_scratch into m total else into.c_total <- total

(* The flushed state: centroid means and weights, total, lo, hi. *)
let state t =
  flush t;
  (Columns.to_array t.c_mean, Columns.to_array t.c_weight, t.c_total, t.lo,
   t.hi)
