module Cols = Numerics.Columns

type mode = Demand | Continuous

(* Mixture priors carry their prepared tables lazily: ingestion never
   needs them, so sub-accumulators used for parallel chunked ingestion
   stay allocation-light, and the first posterior query pays the one-off
   tabulation. *)
type mix = { prior : Dist.Mixture.t; mutable prepared : Bayes.Prepared.t option }

type kind =
  | Beta_prior of { a : float; b : float }
  | Gamma_prior of { shape : float; rate : float }
  | Mix_demand of mix
  | Mix_rate of mix

type t = {
  kind : kind;
  mutable demands : int;
  mutable failures : int;
  hours : Numerics.Exact_sum.t;
  mutable events : int;
  (* Posterior memo keyed on the exact totals (hours by bit pattern). *)
  mutable cache : (int * int * int64 * Dist.Mixture.t) option;
}

(* Counts are capped at 2^53 so they stay exact through the float64
   snapshot columns (and through any JSON surface). *)
let max_count = 1 lsl 53

let make kind =
  {
    kind;
    demands = 0;
    failures = 0;
    hours = Numerics.Exact_sum.create ();
    events = 0;
    cache = None;
  }

let demand_beta ~a ~b =
  if not (a > 0.0) || not (b > 0.0) then
    invalid_arg "Stream.demand_beta: a and b must be positive";
  make (Beta_prior { a; b })

let rate_gamma ~shape ~rate =
  if not (shape > 0.0) || not (rate > 0.0) then
    invalid_arg "Stream.rate_gamma: shape and rate must be positive";
  make (Gamma_prior { shape; rate })

let demand_of_belief prior = make (Mix_demand { prior; prepared = None })
let rate_of_belief prior = make (Mix_rate { prior; prepared = None })

let copy t =
  {
    kind = t.kind;
    demands = t.demands;
    failures = t.failures;
    hours = Numerics.Exact_sum.copy t.hours;
    events = t.events;
    cache = t.cache;
  }

let mode t =
  match t.kind with
  | Beta_prior _ | Mix_demand _ -> Demand
  | Gamma_prior _ | Mix_rate _ -> Continuous

let events t = t.events
let demands t = t.demands
let failures t = t.failures
let hours t = Numerics.Exact_sum.value t.hours

let require_mode t m name =
  if mode t <> m then
    invalid_arg
      (Printf.sprintf "Stream.%s: accumulator is %s-mode" name
         (match mode t with Demand -> "demand" | Continuous -> "continuous"))

let check_count n what =
  if n > max_count then
    invalid_arg (Printf.sprintf "Stream: %s total exceeds 2^53" what)

let observe_demands t ~demands ~failures =
  require_mode t Demand "observe_demands";
  if demands < 0 || failures < 0 || failures > demands then
    invalid_arg "Stream.observe_demands: bad counts";
  t.demands <- t.demands + demands;
  t.failures <- t.failures + failures;
  t.events <- t.events + 1;
  check_count t.demands "demand";
  t.cache <- None

let observe_hours t ~hours ~failures =
  require_mode t Continuous "observe_hours";
  if failures < 0 then invalid_arg "Stream.observe_hours: failures < 0";
  if Float.is_nan hours || hours < 0.0 || hours = infinity then
    invalid_arg "Stream.observe_hours: hours must be finite and non-negative";
  Numerics.Exact_sum.add t.hours hours;
  t.failures <- t.failures + failures;
  t.events <- t.events + 1;
  check_count t.failures "failure";
  t.cache <- None

let check_paired name a b =
  let n = Cols.length a in
  if Cols.length b <> n then
    invalid_arg (Printf.sprintf "Stream.%s: column lengths differ" name);
  n

(* Row decoding shared by the column ingesters: values must be exact
   non-negative integer counts. *)
let int_at name col i =
  let v = Cols.unsafe_get col i in
  let n = int_of_float v in
  if float_of_int n <> v || n < 0 then
    invalid_arg (Printf.sprintf "Stream.%s: bad count %g at row %d" name v i)
  else n

let ingest_demands_slice t ~demands ~failures ~pos ~len =
  let d_total = ref 0 and f_total = ref 0 in
  for i = pos to pos + len - 1 do
    let d = int_at "ingest_demands_col" demands i in
    let f = int_at "ingest_demands_col" failures i in
    if f > d then
      invalid_arg
        (Printf.sprintf "Stream.ingest_demands_col: failures > demands at row %d" i);
    d_total := !d_total + d;
    f_total := !f_total + f
  done;
  t.demands <- t.demands + !d_total;
  t.failures <- t.failures + !f_total;
  t.events <- t.events + len;
  check_count t.demands "demand";
  t.cache <- None

let ingest_demands_col t ~demands ~failures =
  require_mode t Demand "ingest_demands_col";
  let n = check_paired "ingest_demands_col" demands failures in
  ingest_demands_slice t ~demands ~failures ~pos:0 ~len:n

let ingest_hours_slice t ~hours ~failures ~pos ~len =
  let f_total = ref 0 in
  for i = pos to pos + len - 1 do
    let h = Cols.unsafe_get hours i in
    if Float.is_nan h || h < 0.0 || h = infinity then
      invalid_arg
        (Printf.sprintf "Stream.ingest_hours_col: bad hours %g at row %d" h i);
    Numerics.Exact_sum.add t.hours h;
    f_total := !f_total + int_at "ingest_hours_col" failures i
  done;
  t.failures <- t.failures + !f_total;
  t.events <- t.events + len;
  check_count t.failures "failure";
  t.cache <- None

let ingest_hours_col t ~hours ~failures =
  require_mode t Continuous "ingest_hours_col";
  let n = check_paired "ingest_hours_col" hours failures in
  ingest_hours_slice t ~hours ~failures ~pos:0 ~len:n

(* --- merging ----------------------------------------------------------- *)

let same_prior a b =
  match (a, b) with
  | Beta_prior p, Beta_prior q ->
    Int64.bits_of_float p.a = Int64.bits_of_float q.a
    && Int64.bits_of_float p.b = Int64.bits_of_float q.b
  | Gamma_prior p, Gamma_prior q ->
    Int64.bits_of_float p.shape = Int64.bits_of_float q.shape
    && Int64.bits_of_float p.rate = Int64.bits_of_float q.rate
  | Mix_demand m, Mix_demand n | Mix_rate m, Mix_rate n -> m.prior == n.prior
  | _ -> false

let merge_into ~into src =
  if not (same_prior into.kind src.kind) then
    invalid_arg "Stream.merge: accumulators have different priors";
  into.demands <- into.demands + src.demands;
  into.failures <- into.failures + src.failures;
  Numerics.Exact_sum.merge_into ~into:into.hours src.hours;
  into.events <- into.events + src.events;
  check_count into.demands "demand";
  check_count into.failures "failure";
  into.cache <- None

let merge a b =
  let t = copy a in
  merge_into ~into:t b;
  t

(* --- parallel ingestion ------------------------------------------------- *)

(* A fresh evidence-free accumulator sharing [t]'s prior (physically, so
   the merge identity check holds). *)
let sub t = make t.kind

let ingest_par ~mode:m ~name ~slice ?pool ?chunks t ~a ~b =
  require_mode t m name;
  let n = check_paired name a b in
  let chunks =
    Numerics.Parallel.resolve_chunks ?pool ?chunks ("Stream." ^ name)
  in
  let bounds = Numerics.Parallel.slice_bounds ~n ~chunks in
  let subs =
    Numerics.Parallel.map_chunks ?pool ~chunks (fun c ->
        let acc = sub t in
        slice acc ~pos:bounds.(c) ~len:(bounds.(c + 1) - bounds.(c));
        acc)
  in
  (* Chunk-order merge; with exact totals the order is immaterial, but
     fixing it keeps the contract uniform with the rest of the codebase. *)
  Array.iter (fun s -> merge_into ~into:t s) subs

let ingest_demands_par ?pool ?chunks t ~demands ~failures =
  ingest_par ~mode:Demand ~name:"ingest_demands_par"
    ~slice:(fun acc ~pos ~len ->
      ingest_demands_slice acc ~demands ~failures ~pos ~len)
    ?pool ?chunks t ~a:demands ~b:failures

let ingest_hours_par ?pool ?chunks t ~hours ~failures =
  ingest_par ~mode:Continuous ~name:"ingest_hours_par"
    ~slice:(fun acc ~pos ~len ->
      ingest_hours_slice acc ~hours ~failures ~pos ~len)
    ?pool ?chunks t ~a:hours ~b:failures

(* --- posterior queries -------------------------------------------------- *)

let prep_of m =
  match m.prepared with
  | Some p -> p
  | None ->
    let p = Bayes.Prepared.make m.prior in
    m.prepared <- Some p;
    p

(* Posterior from explicit totals.  The zero-evidence shortcut returns
   the prior itself, exactly as [Tail_cutoff.after_demands ~n:0] and
   [after_hours ~t:0.0] do — that is the batch behaviour the bitwise
   gates compare against. *)
let posterior_of_totals t ~demands ~failures ~hours_v =
  match t.kind with
  | Beta_prior { a; b } ->
    Dist.Mixture.of_dist (Bayes.beta_posterior ~a ~b ~failures ~demands)
  | Gamma_prior { shape; rate } ->
    Dist.Mixture.of_dist
      (Bayes.gamma_posterior ~shape ~rate ~failures ~time:hours_v)
  | Mix_demand m ->
    if demands = 0 && failures = 0 then m.prior
    else fst (Bayes.Prepared.update_demands (prep_of m) ~failures ~demands)
  | Mix_rate m ->
    if hours_v = 0.0 && failures = 0 then m.prior
    else fst (Bayes.Prepared.update_time (prep_of m) ~failures ~time:hours_v)

let posterior t =
  let hours_v = Numerics.Exact_sum.value t.hours in
  let hbits = Int64.bits_of_float hours_v in
  match t.cache with
  | Some (d, f, hb, p) when d = t.demands && f = t.failures && hb = hbits -> p
  | _ ->
    let p =
      posterior_of_totals t ~demands:t.demands ~failures:t.failures ~hours_v
    in
    t.cache <- Some (t.demands, t.failures, hbits, p);
    p

let mean t = Dist.Mixture.mean (posterior t)
let confidence t ~bound = Dist.Mixture.prob_le (posterior t) bound

let posterior_after_demands t ~extra =
  require_mode t Demand "posterior_after_demands";
  if extra < 0 then invalid_arg "Stream.posterior_after_demands: extra < 0";
  if extra = 0 then posterior t
  else
    posterior_of_totals t ~demands:(t.demands + extra) ~failures:t.failures
      ~hours_v:0.0

let posterior_after_hours t ~extra =
  require_mode t Continuous "posterior_after_hours";
  if Float.is_nan extra || extra < 0.0 then
    invalid_arg "Stream.posterior_after_hours: extra < 0";
  if extra = 0.0 then posterior t
  else begin
    (* The hypothetical total goes through the same exact sum so the
       what-if matches what ingesting the hours would produce. *)
    let s = Numerics.Exact_sum.copy t.hours in
    Numerics.Exact_sum.add s extra;
    posterior_of_totals t ~demands:0 ~failures:t.failures
      ~hours_v:(Numerics.Exact_sum.value s)
  end

(* --- snapshots ---------------------------------------------------------- *)

(* meta slots: mode tag (0 demand / 1 continuous), kind tag (0 beta /
   1 gamma / 2 mixture), two prior parameters, then the exact counts. *)
let to_columns t =
  let mode_tag = match mode t with Demand -> 0.0 | Continuous -> 1.0 in
  let kind_tag, p0, p1 =
    match t.kind with
    | Beta_prior { a; b } -> (0.0, a, b)
    | Gamma_prior { shape; rate } -> (1.0, shape, rate)
    | Mix_demand _ | Mix_rate _ -> (2.0, 0.0, 0.0)
  in
  let meta = Cols.create ~capacity:7 () in
  List.iter (Cols.push meta)
    [
      mode_tag; kind_tag; p0; p1;
      float_of_int t.demands; float_of_int t.failures; float_of_int t.events;
    ];
  [ ("stream_meta", meta); ("stream_hours", Numerics.Exact_sum.to_column t.hours) ]

let of_columns ?prior cols =
  let meta = Cols.find cols "stream_meta" in
  if Cols.length meta <> 7 then
    failwith "Stream.of_columns: malformed stream_meta";
  let slot i = Cols.get meta i in
  let count i what =
    let v = slot i in
    let n = int_of_float v in
    if float_of_int n <> v || n < 0 || n > max_count then
      failwith (Printf.sprintf "Stream.of_columns: bad %s count %g" what v);
    n
  in
  let kind =
    match (slot 1, slot 0) with
    | 0.0, 0.0 -> Beta_prior { a = slot 2; b = slot 3 }
    | 1.0, 1.0 -> Gamma_prior { shape = slot 2; rate = slot 3 }
    | 2.0, m -> (
      let prior =
        match prior with
        | Some p -> p
        | None ->
          failwith
            "Stream.of_columns: mixture-prior snapshot needs ~prior supplied"
      in
      match m with
      | 0.0 -> Mix_demand { prior; prepared = None }
      | 1.0 -> Mix_rate { prior; prepared = None }
      | _ -> failwith "Stream.of_columns: bad mode tag")
    | _ -> failwith "Stream.of_columns: inconsistent mode/kind tags"
  in
  let t = make kind in
  t.demands <- count 4 "demand";
  t.failures <- count 5 "failure";
  t.events <- count 6 "event";
  Numerics.Exact_sum.merge_into ~into:t.hours
    (Numerics.Exact_sum.of_column (Cols.find cols "stream_hours"));
  t
