type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

(* splitmix64 is used only to expand the user seed into generator state. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3 }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 t =
  let open Int64 in
  let result = add (rotl (add t.s0 t.s3) 23) t.s0 in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let split t =
  let state = ref (bits64 t) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3 }

let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n: n < 0";
  if n = 0 then [||]
  else begin
    (* Explicit loop so stream [i] is always the i-th split of [t],
       independent of any evaluation-order choices. *)
    let streams = Array.make n t in
    for i = 0 to n - 1 do
      streams.(i) <- split t
    done;
    streams
  end

let float t =
  (* Top 53 bits scaled to [0, 1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1p-53

let rec float_pos t =
  let u = float t in
  if u > 0.0 then u else float_pos t

let int t n =
  if n <= 0 then invalid_arg "Rng.int: n <= 0";
  (* Rejection to avoid modulo bias. *)
  let n64 = Int64.of_int n in
  let rec draw () =
    let bits = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem bits n64 in
    if Int64.sub bits v > Int64.sub Int64.max_int (Int64.sub n64 1L) then draw ()
    else Int64.to_int v
  in
  draw ()

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p =
  if p <= 0.0 then false else if p >= 1.0 then true else float t < p

let uniform t a b = a +. ((b -. a) *. float t)

let rec normal t ~mu ~sigma =
  let u = (2.0 *. float t) -. 1.0 in
  let v = (2.0 *. float t) -. 1.0 in
  let s = (u *. u) +. (v *. v) in
  if s >= 1.0 || s = 0.0 then normal t ~mu ~sigma
  else mu +. (sigma *. u *. sqrt (-2.0 *. log s /. s))

let lognormal t ~mu ~sigma = exp (normal t ~mu ~sigma)

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate <= 0";
  -.log (float_pos t) /. rate

(* Marsaglia-Tsang (2000); shapes below 1 handled by the boost
   X(a) = X(a+1) * U^(1/a). *)
let rec gamma t ~shape ~rate =
  if shape <= 0.0 || rate <= 0.0 then invalid_arg "Rng.gamma: parameters <= 0";
  if shape < 1.0 then
    let x = gamma t ~shape:(shape +. 1.0) ~rate in
    x *. (float_pos t ** (1.0 /. shape))
  else begin
    let d = shape -. (1.0 /. 3.0) in
    let c = 1.0 /. sqrt (9.0 *. d) in
    let rec draw () =
      let x = normal t ~mu:0.0 ~sigma:1.0 in
      let v = 1.0 +. (c *. x) in
      if v <= 0.0 then draw ()
      else begin
        let v3 = v *. v *. v in
        let u = float_pos t in
        if u < 1.0 -. (0.0331 *. x *. x *. x *. x) then d *. v3
        else if log u < (0.5 *. x *. x) +. (d *. (1.0 -. v3 +. log v3)) then
          d *. v3
        else draw ()
      end
    in
    draw () /. rate
  end

let beta t ~a ~b =
  let x = gamma t ~shape:a ~rate:1.0 in
  let y = gamma t ~shape:b ~rate:1.0 in
  x /. (x +. y)

let rec poisson t ~mean =
  if mean < 0.0 then invalid_arg "Rng.poisson: mean < 0";
  if mean = 0.0 then 0
  else if mean > 400.0 then
    (* Poisson additivity keeps the Knuth loop short for large means. *)
    poisson t ~mean:(mean /. 2.0) + poisson t ~mean:(mean /. 2.0)
  else begin
    let limit = exp (-.mean) in
    let rec loop k prod =
      let prod = prod *. float_pos t in
      if prod <= limit then k else loop (k + 1) prod
    in
    loop 0 1.0
  end

let rec binomial t ~n ~p =
  if n < 0 then invalid_arg "Rng.binomial: n < 0";
  if p < 0.0 || p > 1.0 then invalid_arg "Rng.binomial: p not in [0,1]";
  if n = 0 || p = 0.0 then 0
  else if p = 1.0 then n
  else if p > 0.5 then n - binomial_small t ~n ~p:(1.0 -. p)
  else binomial_small t ~n ~p

and binomial_small t ~n ~p =
  (* Inversion by chop-down; expected cost O(n*p), fine for n*p <~ 1e4.
     For tiny p the geometric-skip method is used instead. *)
  if p *. float_of_int n < 30.0 && p < 0.05 then begin
    (* Count successes by jumping between them with geometric gaps. *)
    let log_q = Special.log1p (-.p) in
    let rec loop pos count =
      let gap = int_of_float (floor (log (float_pos t) /. log_q)) in
      let pos = pos + gap + 1 in
      if pos > n then count else loop pos (count + 1)
    in
    loop 0 0
  end
  else begin
    let q = 1.0 -. p in
    let s = p /. q in
    let a = float_of_int (n + 1) *. s in
    let r0 = q ** float_of_int n in
    let u = ref (float t) in
    let r = ref r0 in
    let x = ref 0 in
    while !u > !r && !x < n do
      u := !u -. !r;
      incr x;
      r := !r *. ((a /. float_of_int !x) -. s)
    done;
    !x
  end

let geometric t ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p not in (0,1]";
  if p = 1.0 then 0
  else int_of_float (floor (log (float_pos t) /. Special.log1p (-.p)))

(* ------------------------------------------------------------------ *)
(* Batched generation.

   The scalar API above mutates four boxed [int64] record fields on every
   draw: each store allocates a fresh box and pays a write barrier, so a
   Monte-Carlo loop over [bits64] is GC-bound — and under several domains
   the resulting minor-collection rate forces constant stop-the-world
   synchronisation.  The kernels below carry the four state words in local
   references for a whole batch (the native compiler unboxes non-escaping
   number refs, so the inner loops are allocation-free) and write the
   state back once at the end.

   The kernels write through [Bigarray.Array1] storage (the [Columns]
   backing representation).  Bit-compatibility contract: every
   [fill_xs_col t buf ~pos ~len] writes exactly the values that [len]
   successive scalar [xs t] calls would return, and leaves [t] in exactly
   the state those calls would leave it in.  The xoshiro256++ step is
   deliberately duplicated in each rejection loop below: hoisting it into
   a shared function over the refs would make the refs escape into a
   closure and re-box them. *)

let check_fill_col name (buf : Columns.ba) ~pos ~len =
  if pos < 0 || len < 0 || len > Bigarray.Array1.dim buf - pos then
    invalid_arg name

let fill_floats_col t (buf : Columns.ba) ~pos ~len =
  check_fill_col "Rng.fill_floats_col" buf ~pos ~len;
  let s0 = ref t.s0 and s1 = ref t.s1 and s2 = ref t.s2 and s3 = ref t.s3 in
  for i = pos to pos + len - 1 do
    let result = Int64.add (rotl (Int64.add !s0 !s3) 23) !s0 in
    let tmp = Int64.shift_left !s1 17 in
    s2 := Int64.logxor !s2 !s0;
    s3 := Int64.logxor !s3 !s1;
    s1 := Int64.logxor !s1 !s2;
    s0 := Int64.logxor !s0 !s3;
    s2 := Int64.logxor !s2 tmp;
    s3 := rotl !s3 45;
    Bigarray.Array1.unsafe_set buf i
      (Int64.to_float (Int64.shift_right_logical result 11) *. 0x1p-53)
  done;
  t.s0 <- !s0;
  t.s1 <- !s1;
  t.s2 <- !s2;
  t.s3 <- !s3

let fill_floats_pos_col t (buf : Columns.ba) ~pos ~len =
  check_fill_col "Rng.fill_floats_pos_col" buf ~pos ~len;
  let s0 = ref t.s0 and s1 = ref t.s1 and s2 = ref t.s2 and s3 = ref t.s3 in
  for i = pos to pos + len - 1 do
    let u = ref 0.0 in
    while !u <= 0.0 do
      let result = Int64.add (rotl (Int64.add !s0 !s3) 23) !s0 in
      let tmp = Int64.shift_left !s1 17 in
      s2 := Int64.logxor !s2 !s0;
      s3 := Int64.logxor !s3 !s1;
      s1 := Int64.logxor !s1 !s2;
      s0 := Int64.logxor !s0 !s3;
      s2 := Int64.logxor !s2 tmp;
      s3 := rotl !s3 45;
      u := Int64.to_float (Int64.shift_right_logical result 11) *. 0x1p-53
    done;
    Bigarray.Array1.unsafe_set buf i !u
  done;
  t.s0 <- !s0;
  t.s1 <- !s1;
  t.s2 <- !s2;
  t.s3 <- !s3

let fill_uniforms_col t (buf : Columns.ba) ~pos ~len ~a ~b =
  fill_floats_col t buf ~pos ~len;
  for i = pos to pos + len - 1 do
    Bigarray.Array1.unsafe_set buf i
      (a +. ((b -. a) *. Bigarray.Array1.unsafe_get buf i))
  done

let fill_exponentials_col t (buf : Columns.ba) ~pos ~len ~rate =
  if rate <= 0.0 then invalid_arg "Rng.fill_exponentials_col: rate <= 0";
  fill_floats_pos_col t buf ~pos ~len;
  for i = pos to pos + len - 1 do
    Bigarray.Array1.unsafe_set buf i
      (-.log (Bigarray.Array1.unsafe_get buf i) /. rate)
  done

let fill_normals_col t (buf : Columns.ba) ~pos ~len ~mu ~sigma =
  check_fill_col "Rng.fill_normals_col" buf ~pos ~len;
  let s0 = ref t.s0 and s1 = ref t.s1 and s2 = ref t.s2 and s3 = ref t.s3 in
  for i = pos to pos + len - 1 do
    (* Polar Marsaglia with the same accept/reject sequence as the scalar
       [normal] (the second deviate is discarded, as there). *)
    let x = ref 0.0 in
    let accepted = ref false in
    while not !accepted do
      let r1 = Int64.add (rotl (Int64.add !s0 !s3) 23) !s0 in
      let tmp = Int64.shift_left !s1 17 in
      s2 := Int64.logxor !s2 !s0;
      s3 := Int64.logxor !s3 !s1;
      s1 := Int64.logxor !s1 !s2;
      s0 := Int64.logxor !s0 !s3;
      s2 := Int64.logxor !s2 tmp;
      s3 := rotl !s3 45;
      let r2 = Int64.add (rotl (Int64.add !s0 !s3) 23) !s0 in
      let tmp = Int64.shift_left !s1 17 in
      s2 := Int64.logxor !s2 !s0;
      s3 := Int64.logxor !s3 !s1;
      s1 := Int64.logxor !s1 !s2;
      s0 := Int64.logxor !s0 !s3;
      s2 := Int64.logxor !s2 tmp;
      s3 := rotl !s3 45;
      let u =
        (2.0 *. (Int64.to_float (Int64.shift_right_logical r1 11) *. 0x1p-53))
        -. 1.0
      in
      let v =
        (2.0 *. (Int64.to_float (Int64.shift_right_logical r2 11) *. 0x1p-53))
        -. 1.0
      in
      let s = (u *. u) +. (v *. v) in
      if s < 1.0 && s <> 0.0 then begin
        accepted := true;
        x := mu +. (sigma *. u *. sqrt (-2.0 *. log s /. s))
      end
    done;
    Bigarray.Array1.unsafe_set buf i !x
  done;
  t.s0 <- !s0;
  t.s1 <- !s1;
  t.s2 <- !s2;
  t.s3 <- !s3

let fill_lognormals_col t (buf : Columns.ba) ~pos ~len ~mu ~sigma =
  fill_normals_col t buf ~pos ~len ~mu ~sigma;
  for i = pos to pos + len - 1 do
    Bigarray.Array1.unsafe_set buf i (exp (Bigarray.Array1.unsafe_get buf i))
  done

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))
