(* Construction keeps the samples unsorted: [mean]/[variance]/[size] and
   bootstrap resampling never need an order, single quantiles go through
   expected-O(n) selection, and only the CDF/grid consumers (cdf, kde,
   to_dist) force the O(n log n) sort — lazily, once.  [work] is a
   multiset-preserving scratch shared by selection and the eventual sort;
   [sorted = true] promotes it to the fully sorted view.

   Storage is columnar ([Numerics.Columns], unboxed float64 bigarrays).
   In the default (unshared) layout [raw] holds construction order forever
   and [work] is a lazy copy — two full buffers once an order statistic
   has been asked for, exactly like the old [float array] pair.  The
   [~share:true] constructors collapse the two: [raw == work], order
   statistics reorder the one buffer in place, and only one copy is ever
   alive — the fix for the double-retention issue, at the documented price
   of construction order. *)
type t = {
  raw : Numerics.Columns.t;  (* construction order unless [shared] *)
  mutable work : Numerics.Columns.t;  (* 0-length sentinel until first use *)
  mutable sorted : bool;  (* [work] is fully sorted *)
  shared : bool;  (* [raw == work]: single-buffer layout *)
}

let of_samples xs =
  if Array.length xs = 0 then invalid_arg "Empirical.of_samples: empty";
  {
    raw = Numerics.Columns.of_array xs;
    work = Numerics.Columns.create ~capacity:0 ();
    sorted = false;
    shared = false;
  }

let of_column ?(share = false) col =
  if Numerics.Columns.length col = 0 then invalid_arg "Empirical.of_column: empty";
  if share then { raw = col; work = col; sorted = false; shared = true }
  else
    {
      raw = col;
      work = Numerics.Columns.create ~capacity:0 ();
      sorted = false;
      shared = false;
    }

let size t = Numerics.Columns.length t.raw
let mean t = Numerics.Columns.mean t.raw
let variance t = Numerics.Columns.variance t.raw
let samples_col t = t.raw
let shared t = t.shared

let work t =
  (* [raw] is non-empty, so an empty [work] means "not yet created"
     (a shared [work] is [raw] itself and is never empty). *)
  if Numerics.Columns.length t.work = 0 then
    t.work <- Numerics.Columns.copy t.raw;
  t.work

let sorted_view t =
  let w = work t in
  if not t.sorted then begin
    Numerics.Columns.sort w;
    t.sorted <- true
  end;
  w

let sorted_materialized t = t.sorted

let cdf t x =
  let sorted = sorted_view t in
  let n = Numerics.Columns.length sorted in
  let d = Numerics.Columns.unsafe_data sorted in
  (* Count of samples <= x via binary search for the rightmost such index. *)
  if x < Bigarray.Array1.get d 0 then 0.0
  else if x >= Bigarray.Array1.get d (n - 1) then 1.0
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if Bigarray.Array1.get d mid <= x then lo := mid else hi := mid
    done;
    float_of_int (!lo + 1) /. float_of_int n
  end

let quantile t p =
  if t.sorted then Numerics.Columns.quantile_sorted t.work p
  else
    (* Expected O(n); partially orders the scratch in place, so repeated
       quantile calls sharpen it without ever paying a full sort. *)
    Numerics.Select.quantile_in_place_col (work t) p

let resample t rng =
  Numerics.Columns.get t.raw (Numerics.Rng.int rng (Numerics.Columns.length t.raw))

let kde ?bandwidth t =
  let sorted = sorted_view t in
  let n = Numerics.Columns.length sorted in
  if n < 8 then invalid_arg "Empirical.kde: need >= 8 samples";
  let d = Numerics.Columns.unsafe_data sorted in
  let std = if n < 2 then 0.0 else sqrt (Numerics.Columns.variance sorted) in
  let h =
    match bandwidth with
    | Some h ->
      if h <= 0.0 then invalid_arg "Empirical.kde: bandwidth <= 0";
      h
    | None ->
      if std <= 0.0 then invalid_arg "Empirical.kde: zero sample spread";
      (* Silverman's rule of thumb. *)
      1.06 *. std *. (float_of_int n ** (-0.2))
  in
  let lo = Bigarray.Array1.get d 0 -. (4.0 *. h) in
  let hi = Bigarray.Array1.get d (n - 1) +. (4.0 *. h) in
  let grid = Numerics.Interp.linspace lo hi 513 in
  let norm = 1.0 /. (float_of_int n *. h *. sqrt (2.0 *. Numerics.Special.pi)) in
  let pdf x =
    (* Only kernels within 6h contribute measurably; find the window by
       binary search to keep evaluation O(window). *)
    let lo_i =
      let target = x -. (6.0 *. h) in
      let rec bsearch a b =
        if b - a <= 1 then b
        else begin
          let m = (a + b) / 2 in
          if Bigarray.Array1.get d m < target then bsearch m b else bsearch a m
        end
      in
      if Bigarray.Array1.get d 0 >= target then 0 else bsearch 0 (n - 1)
    in
    let acc = ref 0.0 in
    let i = ref lo_i in
    while !i < n && Bigarray.Array1.get d !i <= x +. (6.0 *. h) do
      let z = (x -. Bigarray.Array1.get d !i) /. h in
      acc := !acc +. exp (-0.5 *. z *. z);
      incr i
    done;
    norm *. !acc
  in
  let dist, _z = Base.of_grid_pdf ~name:"kde" ~grid ~pdf () in
  dist

let to_dist t =
  (* Tabulate the quantile function on a moderate probability grid and
     differentiate: far less noisy than adjacent-order-statistic gaps. *)
  let sorted = sorted_view t in
  let m = min 257 (max 9 (Numerics.Columns.length sorted / 4)) in
  let us = Numerics.Interp.linspace 0.002 0.998 m in
  let raw = Array.map (fun u -> Numerics.Columns.quantile_sorted sorted u) us in
  (* Keep strictly increasing (duplicated sample values flatten the
     quantile function). *)
  let xs = ref [ raw.(0) ] and ps = ref [ us.(0) ] in
  for i = 1 to m - 1 do
    match !xs with
    | prev :: _ when raw.(i) > prev ->
      xs := raw.(i) :: !xs;
      ps := us.(i) :: !ps
    | _ -> ()
  done;
  let grid = Array.of_list (List.rev !xs) in
  let cdf_tab = Array.of_list (List.rev !ps) in
  let k = Array.length grid in
  if k < 8 then invalid_arg "Empirical.to_dist: need >= 8 distinct values";
  let pdf x =
    let i = Numerics.Interp.search_sorted grid x in
    if i < 0 || i >= k - 1 then 0.0
    else (cdf_tab.(i + 1) -. cdf_tab.(i)) /. (grid.(i + 1) -. grid.(i))
  in
  let d, _z = Base.of_grid_pdf ~name:"empirical" ~grid ~pdf () in
  d
