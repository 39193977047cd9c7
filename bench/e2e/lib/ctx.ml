(* What a workload run needs, and what it hands back. *)

type t = {
  confcase : string;  (** The binary under test. *)
  kernel : string;  (** The calibration kernel ({!Speed}). *)
  seed : int;
  seconds : float;  (** How long the measured phase lasts. *)
  depth : int;  (** Fixture depth: 4 (10^5 nodes) in the benchmark. *)
  setups : int;
      (** Set-ups before the measured window, and again after it: 5 in the
          benchmark.  [setup_s] is the median of all of them, so it samples
          the machine across the whole run, not just the seconds before it. *)
  dir : string;  (** Working directory for fixtures and sockets. *)
  nproc : int;
}

type outcome = {
  attempted : int;
  failed : int;
  correct : bool;  (** Every output gate held. *)
  metrics : (string * float) list;
  env : (string * Serve.Protocol.t) list;  (** Workload-specific env entries. *)
  spans : Trace.span list;
}

let file t name = Filename.concat t.dir name

(* [repeat_for seconds f] — call [f] until [seconds] have passed, at least
   [min] times; returns the results in call order. *)
let repeat_for ?(min = 1) seconds f =
  let t0 = Clock.now_ns () in
  let rec go acc k =
    if k >= min && Clock.seconds_since t0 >= seconds then List.rev acc
    else go (f k :: acc) (k + 1)
  in
  go [] 0

let median_of f xs = Stats.median (Array.of_list (List.map f xs))

(* Wall of [confcase --version]: process start-up and exit with no work. *)
let cli_start_ms t =
  let runs = List.init 7 (fun _ -> Proc.run t.confcase [ "--version" ]) in
  if not (List.for_all Proc.exited_ok runs) then failwith "confcase --version failed";
  1e3 *. median_of (fun (r : Proc.run) -> r.wall_s) runs

(* Per-call self times, from [Trace.self_by_name]; [scale] converts ns. *)
let self_median groups name ~scale =
  match List.assoc_opt name groups with
  | Some a when Array.length a > 0 -> Stats.median a *. scale
  | _ -> 0.0

let self_p99 groups name ~scale =
  match List.assoc_opt name groups with
  | Some a when Array.length a > 0 -> Stats.percentile (Stats.sort a) 0.99 *. scale
  | _ -> 0.0

(* [Parallel.map_chunks] dispatching two near-empty chunks: the per-batch
   cost the serve daemon pays when a batch holds two group keys. *)
let map_chunks_spans tr pool =
  for _ = 1 to 2000 do
    Trace.next_trace tr;
    ignore
      (Trace.with_span tr "parallel.map_chunks" (fun () ->
           Numerics.Parallel.map_chunks ~pool ~chunks:2 (fun _ -> ())))
  done
