(* mc-figures: the Monte-Carlo user path.  A closed loop of passes, each
   running [confcase figures ID] for the five figures whose numbers come
   from parallel Monte-Carlo kernels, at the default domain count.  Every
   pass's output must be byte-identical to a one-domain capture taken in
   set-up: the determinism contract, checked on the binary.

   The traced run times each figure in-process, and each parallel kernel
   with that figure's own arguments at one domain and at [nproc]. *)

module P = Serve.Protocol
module Paper = Repro.Paper

let figure (ctx : Ctx.t) ~one_domain id =
  let set, unset = if one_domain then ([ ("CONFCASE_DOMAINS", "1") ], []) else ([], [ "CONFCASE_DOMAINS" ]) in
  Proc.run ~set ~unset ctx.confcase [ "figures"; id ]

(* The reference outputs: every figure at one domain. *)
let capture ctx =
  List.map
    (fun id ->
      let r = figure ctx ~one_domain:true id in
      if not (Proc.exited_ok r) then failwith ("confcase figures " ^ id ^ " failed");
      (id, r.stdout))
    Metrics.figure_ids

(* [setup ctx m ~times] — capture the references [times] times; returns
   them and the wall of each capture, scaled by [m]. *)
let setup (ctx : Ctx.t) m ~times =
  let runs =
    List.init times (fun _ ->
        let (refs, s), k = Speed.measure m (fun () -> Clock.time (fun () -> capture ctx)) in
        (refs, s *. k))
  in
  let refs = fst (List.hd runs) in
  if not (List.for_all (fun (r, _) -> r = refs) runs) then failwith "one-domain captures differ";
  (refs, List.map snd runs)

(* One pass; [wall_s] and [cpu_s] are scaled by the calibration samples
   around it. *)
type pass = { runs : Proc.run list; bad : int; wall_s : float; cpu_s : float }

let pass ctx m refs =
  let (runs, wall_s), k =
    Speed.measure m (fun () ->
        Clock.time (fun () -> List.map (fun (id, _) -> figure ctx ~one_domain:false id) refs))
  in
  let bad =
    List.fold_left2
      (fun n (r : Proc.run) (_, expected) -> if Proc.exited_ok r && r.stdout = expected then n else n + 1)
      0 runs refs
  in
  let cpu_s = List.fold_left (fun a (r : Proc.run) -> a +. r.cpu_s) 0.0 runs in
  { runs; bad; wall_s = wall_s *. k; cpu_s = cpu_s *. k }

(* --- the kernels each figure calls, with its arguments --------------------------------- *)

let chunks = 64

let tailcut_prior () =
  Dist.Mixture.of_dist (Dist.Lognormal.of_mode_mean ~mode:Paper.mode ~mean:1e-2)

(* Each kernel returns a fingerprint of its result, so the one-domain and
   nproc-domain results can be compared exactly. *)
let kernel name pool =
  match name with
  | "sim.conservative_bound" ->
    let claim = Confidence.Claim.make ~bound:1e-4 ~confidence:0.9991 in
    let e, b =
      Sim.Demand_sim.check_conservative_bound_par ~pool ~n:300_000 ~chunks ~seed:Paper.seed claim
    in
    Printf.sprintf "%h %h %h" e.Sim.Mc.mean e.Sim.Mc.std_error b
  | "sim.survival_curve" ->
    Sim.Demand_sim.survival_curve_par ~pool ~n_systems:100_000 ~chunks ~seed:(Paper.seed + 41)
      ~checkpoints:[ 0; 10; 30; 100; 300; 1000; 3000; 10000 ] (tailcut_prior ())
    |> List.map (fun (n, p) -> Printf.sprintf "%d:%h" n p)
    |> String.concat " "
  | "sim.pfd_sketch" ->
    let sk =
      Sim.Demand_sim.pfd_sketch_par ~pool ~n:200_000 ~chunks ~seed:(Paper.seed + 43) (tailcut_prior ())
    in
    List.map (fun p -> Printf.sprintf "%h" (Numerics.Sketch.quantile sk p)) [ 0.05; 0.5; 0.95 ]
    |> String.concat " "
  | "sim.probability" ->
    let belief = Dist.Lognormal.make ~mu:(log 3e-9 +. 1.0) ~sigma:1.0 in
    let e =
      Sim.Mc.probability_par ~pool ~chunks ~n:65536 ~seed:(Paper.seed + 61) (fun rng ->
          belief.Dist.sample rng > 1e-3)
    in
    Printf.sprintf "%h %h" e.Sim.Mc.mean e.Sim.Mc.std_error
  | "regime.compare" ->
    let policies =
      [ Regime.Policy.Mode_based; Regime.Policy.Mean_based; Regime.Policy.Confidence_based 0.7;
        Regime.Policy.Confidence_based 0.9; Regime.Policy.Conservative_based;
        Regime.Policy.Test_first { demands = 500; confidence = 0.9 };
        Regime.Policy.Test_tolerant { demands = 500; max_failures = 3; confidence = 0.9 } ]
    in
    Regime.Evaluate.summary_table
      (Regime.Evaluate.compare_par ~pool ~chunks ~world:Regime.Population.sil2_world
         ~assessor:Regime.Assessor.calibrated ~band:Sil.Band.Sil2 ~policies ~systems:1000
         ~seed:Paper.seed ())
  | _ -> invalid_arg ("Mc_figures.kernel: " ^ name)

(* tailcut's sketch path split into its three phases: draw each chunk
   into a column, build a sketch per chunk, merge in chunk order. *)
let sketch_phases tr =
  let prior = tailcut_prior () in
  let sizes = Numerics.Parallel.chunk_sizes ~n:200_000 ~chunks in
  let streams = Numerics.Rng.split_n (Numerics.Rng.create (Paper.seed + 43)) chunks in
  let cols = Array.map (fun size -> Numerics.Columns.make size 0.0) sizes in
  Trace.next_trace tr;
  Trace.with_span tr "dist.sample_into_col" (fun () ->
      for i = 0 to chunks - 1 do
        Dist.Mixture.sample_into_col prior (Numerics.Rng.copy streams.(i))
          (Numerics.Columns.unsafe_data cols.(i)) ~pos:0 ~len:sizes.(i)
      done);
  let sketches = Array.map (fun _ -> Numerics.Sketch.create ()) sizes in
  Trace.with_span tr "sketch.add_column" (fun () ->
      for i = 0 to chunks - 1 do
        Numerics.Sketch.add_column sketches.(i) cols.(i) ~pos:0 ~len:sizes.(i)
      done);
  let into = Numerics.Sketch.create () in
  Trace.with_span tr "sketch.merge_into" (fun () ->
      Array.iter (fun sk -> Numerics.Sketch.merge_into ~into sk) sketches)

(* --- the run ------------------------------------------------------------------------------ *)

let run (ctx : Ctx.t) ~trace =
  let m = Speed.meter ctx.kernel in
  let refs, before = setup ctx m ~times:(if trace then 1 else ctx.setups) in
  let env = [ ("figures", P.Arr (List.map (fun id -> P.Str id) Metrics.figure_ids)) ] in
  if not trace then begin
    let passes = Ctx.repeat_for ctx.seconds (fun _ -> pass ctx m refs) in
    let refs_after, after = setup ctx m ~times:ctx.setups in
    if refs_after <> refs then failwith "one-domain captures differ";
    let setup_s = Stats.median (Array.of_list (before @ after)) in
    let walls = Array.of_list (List.map (fun p -> p.wall_s) passes) in
    let p50_s = Stats.median walls in
    let failed = List.fold_left (fun n p -> n + p.bad) 0 passes in
    let peak =
      Ctx.median_of
        (fun p -> float_of_int (List.fold_left (fun acc (r : Proc.run) -> max acc r.peak_kib) 0 p.runs))
        passes
    in
    {
      Ctx.attempted = List.length Metrics.figure_ids * List.length passes;
      failed;
      correct = failed = 0;
      metrics =
        [
          ("setup_s", setup_s);
          ("p50_ms", 1e3 *. p50_s);
          ("cpu_ms", 1e3 *. Ctx.median_of (fun p -> p.cpu_s) passes);
          ("peak_rss_mb", peak /. 1024.0);
        ];
      env = env @ [ ("timing_s", Report.summary walls); ("calibration_s", Report.summary (Speed.samples m)) ];
      spans = [];
    }
  end
  else begin
    let cli_start_ms = Ctx.cli_start_ms ctx in
    let tr = Trace.create () and off = Trace.off () in
    let bad = ref 0 and attempted = ref 0 in
    let check ok =
      incr attempted;
      if not ok then incr bad
    in
    (* An idle extra domain slows every other domain's collections, so the
       one-domain kernels run first, before the process-wide pool the
       figures use exists; the nproc-domain kernels then run on that pool. *)
    let one_domain = Hashtbl.create 8 in
    Numerics.Parallel.with_pool ~num_domains:1 (fun pool1 ->
        ignore
          (Ctx.repeat_for ~min:2 (ctx.seconds /. 3.0) (fun _ ->
               List.iter
                 (fun k ->
                   Trace.next_trace tr;
                   Hashtbl.replace one_domain k (Trace.with_span tr (k ^ ".d1") (fun () -> kernel k pool1)))
                 Metrics.kernels;
               sketch_phases tr)));
    let pool_n = Numerics.Parallel.global_pool () in
    let figures t =
      List.iter
        (fun (id, expected) ->
          Trace.next_trace t;
          check (Trace.with_span t ("repro." ^ id) (fun () -> Repro.Experiments.run_one id) = expected))
        refs
    in
    let rep k =
      (* Alternate the order, so neither replay always runs second. *)
      let time t = snd (Clock.time (fun () -> figures t)) in
      let traced, plain =
        if k mod 2 = 0 then
          let a = time tr in
          (a, time off)
        else
          let b = time off in
          (time tr, b)
      in
      List.iter
        (fun k ->
          Trace.next_trace tr;
          check (Trace.with_span tr (k ^ ".dN") (fun () -> kernel k pool_n) = Hashtbl.find one_domain k))
        Metrics.kernels;
      traced /. plain
    in
    let overheads = Ctx.repeat_for ~min:2 (2.0 *. ctx.seconds /. 3.0) rep in
    Ctx.map_chunks_spans tr pool_n;
    let spans = Trace.spans tr in
    let groups = Trace.self_by_name spans in
    let ms = Ctx.self_median groups ~scale:1e-6 in
    {
      Ctx.attempted = !attempted;
      failed = !bad;
      correct = !bad = 0;
      metrics =
        [
          ("fail_frac", float_of_int !bad /. float_of_int !attempted);
          ("cli.start_ms", cli_start_ms);
          ("parallel.map_chunks_us", Ctx.self_median groups "parallel.map_chunks" ~scale:1e-3);
          ("sketch.add_column_ms", ms "sketch.add_column");
          ("sketch.merge_into_ms", ms "sketch.merge_into");
          ("dist.sample_into_col_ms", ms "dist.sample_into_col");
          ("trace.overhead_frac", Ctx.median_of Fun.id overheads -. 1.0);
        ]
        @ List.map (fun id -> (Printf.sprintf "repro.%s_ms" id, ms ("repro." ^ id))) Metrics.figure_ids
        @ List.concat_map
            (fun k ->
              let d1 = ms (k ^ ".d1") and dn = ms (k ^ ".dN") in
              [ (k ^ "_ms.d1", d1); (k ^ "_ms.dN", dn); (Metrics.speedup_name k, d1 /. dn) ])
            Metrics.kernels;
      env;
      spans;
    }
  end
