(* serve-read and serve-write: a [confcase serve --unix] daemon holding
   the fixture case hot, driven open-loop by {!Client} over [nproc]
   connections.

   serve-read evaluates goals from a fixed working set, all warm in the
   memo, so it isolates the request path: protocol, server loop, memo.
   serve-write mixes 45% edits, 45% evaluates and 10% stream ingests.
   Each connection edits only its own share of the leaves, so edits
   commute and the final state does not depend on how the daemon
   interleaved the connections; evaluates in an edited cone miss the
   memo; evaluates and ingests carry two group keys, so batches fan out
   over the domain pool.

   An untraced run spends all its time in the open-loop reference step
   at a fixed rate, cut into windows with a calibration sample
   ({!Speed}) between each two.  The traced run also climbs a ladder of rising rates
   for the capacity, which on a small shared machine varies too much
   from run to run to gate on. *)

module G = Casekit.Graph
module P = Serve.Protocol
module Rng = Numerics.Rng

let reference_rate = 5000.0
let limit_us = 1000.0
let working_set = 4096
let case_name = "c"
let stream_name = "ops"
let beta_prior = (1.0, 1000.0)
let failure_p = 3e-3

type kind = Evaluate | Edit | Ingest

let op_name = function Evaluate -> "evaluate" | Edit -> "edit" | Ingest -> "ingest"
let dep_json = Printf.sprintf "%g" Fixture.rho

let evaluate_line id node =
  Printf.sprintf {|{"id":%d,"op":"evaluate","case":"%s","node":"%s","dependence":%s}|} id case_name
    node dep_json

let edit_line id leaf v =
  Printf.sprintf {|{"id":%d,"op":"edit","case":"%s","evidence":"%s","value":%.17g,"dependence":%s}|}
    id case_name leaf v dep_json

let ingest_line id failures =
  Printf.sprintf {|{"id":%d,"op":"ingest","stream":"%s","demands":1,"failures":%d}|} id stream_name
    failures

let load_line (f : Fixture.t) =
  Printf.sprintf {|{"op":"load","case":"%s","path":"%s"}|} case_name f.path

let stream_line =
  let a, b = beta_prior in
  Printf.sprintf {|{"op":"stream","stream":"%s","beta_a":%g,"beta_b":%g}|} stream_name a b

let root_line = Printf.sprintf {|{"op":"evaluate","case":"%s","dependence":%s}|} case_name dep_json
let posterior_line = Printf.sprintf {|{"op":"posterior","stream":"%s"}|} stream_name
let hex v = P.hex_of_bits (Int64.bits_of_float v)

(* --- the fixture, its working set, and the in-process twin ---------------------- *)

type state = {
  f : Fixture.t;
  write : bool;
  ws : string array;  (** Working-set goal ids. *)
  ws_bits : string array;  (** Reference bits of each working-set goal. *)
  twin : G.t;  (** Mirrors every acknowledged edit. *)
  acc : Experience.Stream.t;  (** Mirrors every acknowledged ingest. *)
  rngs : Rng.t array;  (** One request stream per connection. *)
  schedule : Rng.t;  (** Arrival times. *)
  mutable next_id : int;
}

let prepare (ctx : Ctx.t) ~write =
  let f = Fixture.write ~seed:ctx.seed ~depth:ctx.depth (Ctx.file ctx "serve.case") in
  let rng = Rng.create (ctx.seed + 1) in
  let goals = Array.copy f.goals in
  (* Partial Fisher-Yates: a uniform sample without replacement. *)
  let k = min working_set (Array.length goals) in
  for i = 0 to k - 1 do
    let j = i + Rng.int rng (Array.length goals - i) in
    let t = goals.(i) in
    goals.(i) <- goals.(j);
    goals.(j) <- t
  done;
  let ws = Array.sub goals 0 k in
  ignore (G.propagate Fixture.dependence f.graph);
  let ws_bits = Array.map (fun id -> hex (G.value f.graph (Option.get (G.find f.graph id)))) ws in
  let a, b = beta_prior in
  {
    f;
    write;
    ws;
    ws_bits;
    twin = f.graph;
    acc = Experience.Stream.demand_beta ~a ~b;
    rngs = Rng.split_n rng ctx.nproc;
    schedule = Rng.split rng;
    next_id = 0;
  }

let fresh_ids st n =
  let base = st.next_id in
  st.next_id <- base + n;
  base

(* --- requests --------------------------------------------------------------------- *)

(* The requests of one step, by index: what each asked, so that answers
   can be checked and acknowledged writes mirrored on the twin. *)
type requests = {
  base : int;  (** Request [k] carries id [base + k]. *)
  mutable n : int;
  lines : string array;
  kinds : kind array;
  target : int array;  (** Working-set index, or leaf index. *)
  value : float array;
  fails : int array;
}

(* Ids run on across steps; [settle] moves them past this step's. *)
let requests st ~capacity =
  {
    base = st.next_id;
    n = 0;
    lines = Array.make capacity "";
    kinds = Array.make capacity Evaluate;
    target = Array.make capacity 0;
    value = Array.make capacity 0.0;
    fails = Array.make capacity 0;
  }

(* [next st rq ci] — connection [ci]'s next request, drawn from its own
   stream: 45% edits of a leaf the connection owns (leaf j belongs to
   connection j mod nconns), 10% ingests, the rest evaluates. *)
let next st rq ci =
  let k = rq.n in
  rq.n <- k + 1;
  let rng = st.rngs.(ci) and id = rq.base + k in
  let u = if st.write then Rng.float rng else 0.5 in
  rq.lines.(k) <-
    (if u < 0.45 then begin
      let nconns = Array.length st.rngs and leaves = st.f.leaves in
      let j = ci + (nconns * Rng.int rng ((Array.length leaves - ci + nconns - 1) / nconns)) in
      let lo, hi = Fixture.leaf_band in
      let v = Rng.uniform rng lo hi in
      rq.kinds.(k) <- Edit;
      rq.target.(k) <- j;
      rq.value.(k) <- v;
      edit_line id leaves.(j) v
    end
    else if u >= 0.9 then begin
      let failures = if Rng.bernoulli rng failure_p then 1 else 0 in
      rq.kinds.(k) <- Ingest;
      rq.fails.(k) <- failures;
      ingest_line id failures
    end
    else begin
      let w = Rng.int rng (Array.length st.ws) in
      rq.kinds.(k) <- Evaluate;
      rq.target.(k) <- w;
      evaluate_line id st.ws.(w)
    end)

(* Checks one answer; acknowledged writes are queued for the twin.  On
   serve-read every answer must carry the reference bits. *)
type answers = { mutable acked : int list; mutable wrong : int }

let check st rq ans k line =
  Client.response_ok line
  &&
  match rq.kinds.(k) with
  | Evaluate ->
    st.write
    || Client.response_bits line = st.ws_bits.(rq.target.(k))
    || (ans.wrong <- ans.wrong + 1; false)
  | Edit | Ingest ->
    ans.acked <- k :: ans.acked;
    true

(* --- daemon set-up ------------------------------------------------------------------ *)

type live = {
  d : Client.daemon;
  conns : Client.conn array;
  load_s : float;
  cold_eval_s : float;
  memo0 : float * float;  (** Memo hits and misses once set up. *)
}

(* Cumulative memo hits and misses, and the entry count. *)
let stats c =
  let r = Client.call c {|{"op":"stats"}|} in
  let num k = Option.value ~default:0.0 (Client.number r k) in
  (num "hits", num "misses", num "memo_entries")

let expect_ok what line = if not (Client.response_ok line) then failwith (what ^ ": " ^ line)

(* Daemon start, [load], one cold evaluate, the working set warmed into
   the memo, and on serve-write the stream created. *)
let setup (ctx : Ctx.t) st k =
  let d =
    Client.start_daemon ~confcase:ctx.confcase
      ~sock:(Ctx.file ctx (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) k))
      ~domains:ctx.nproc
  in
  let conns = Array.init ctx.nproc (fun _ -> Client.connect d) in
  let c = conns.(0) in
  let load, load_s = Clock.time (fun () -> Client.call c (load_line st.f)) in
  expect_ok "load" load;
  if Client.number load "nodes" <> Some (float_of_int (Fixture.nodes st.f)) then
    failwith ("load: wrong node count: " ^ load);
  let cold, cold_eval_s = Clock.time (fun () -> Client.call c root_line) in
  expect_ok "evaluate" cold;
  (* Warm the memo in windows well under the daemon's queue bound. *)
  let window = 256 in
  let n = Array.length st.ws in
  let base = fresh_ids st n in
  for w = 0 to (n - 1) / window do
    let lo = w * window in
    let hi = min n (lo + window) in
    let lines = List.init (hi - lo) (fun i -> evaluate_line (base + lo + i) st.ws.(lo + i)) in
    List.iteri
      (fun i r ->
        if not (Client.response_ok r && Client.response_bits r = st.ws_bits.(lo + i)) then
          failwith ("warm-up: wrong bits: " ^ r))
      (Client.call_many c lines)
  done;
  if st.write then expect_ok "stream" (Client.call c stream_line);
  let hits, misses, _ = stats c in
  { d; conns; load_s; cold_eval_s; memo0 = (hits, misses) }

let stop live =
  Array.iteri (fun i c -> if i > 0 then Client.close c) live.conns;
  Client.stop_daemon live.d live.conns.(0)

(* --- steps ------------------------------------------------------------------------------ *)

type checked = {
  wrong : int;  (** Answers with the wrong bits. *)
  mirror_ok : bool;  (** serve-write: root and posterior equal the twin's. *)
  memo : float * float * float;  (** {!stats} after the step. *)
}

(* After a step: mirror the acknowledged writes in acknowledgement order
   (a connection's edits arrive in its send order, and connections own
   disjoint leaves), then compare the daemon's root and posterior bits
   with the twin's. *)
let settle st live rq ans =
  st.next_id <- rq.base + rq.n;
  List.iter
    (fun k ->
      match rq.kinds.(k) with
      | Edit ->
        G.set_evidence st.twin (Option.get (G.find st.twin st.f.leaves.(rq.target.(k)))) rq.value.(k)
      | Ingest -> Experience.Stream.observe_demands st.acc ~demands:1 ~failures:rq.fails.(k)
      | Evaluate -> ())
    (List.rev ans.acked);
  let c = live.conns.(0) in
  let mirror_ok =
    (not st.write)
    || (let root = Client.call c root_line and post = Client.call c posterior_line in
        Client.response_bits root = hex (G.refresh Fixture.dependence st.twin)
        && Client.response_bits post = hex (Experience.Stream.mean st.acc))
  in
  { wrong = ans.wrong; mirror_ok; memo = stats c }

(* An open-loop step: Poisson arrivals at [rate] for [duration] seconds,
   requests made in advance and dealt to the connections in turn. *)
let open_step st live ~rate ~duration =
  let offsets = Client.poisson st.schedule ~rate ~duration in
  let n = Array.length offsets and nconns = Array.length live.conns in
  let rq = requests st ~capacity:(max 1 n) in
  for k = 0 to n - 1 do
    next st rq (k mod nconns)
  done;
  let ans = { acked = []; wrong = 0 } in
  let step =
    Client.run_step live.conns ~base:rq.base ~rate ~offsets
      ~requests:(fun k -> (rq.lines.(k), k mod nconns))
      ~on_response:(check st rq ans)
  in
  (step, rq, settle st live rq ans)

let failures (s : Client.step) =
  Array.fold_left (fun n x -> if Float.is_finite x then n else n + 1) 0 s.latency_us

let p99 xs = Stats.percentile (Stats.sort xs) 0.99

(* --- in-process replay of the reference step ----------------------------------------------- *)

let fresh_engine st =
  let eng = Serve.Engine.create () in
  expect_ok "replay load" (Serve.Engine.handle eng (load_line st.f));
  Array.iteri (fun i id -> ignore (Serve.Engine.handle eng (evaluate_line i id))) st.ws;
  if st.write then expect_ok "replay stream" (Serve.Engine.handle eng stream_line);
  eng

let replay tr eng rq =
  let out = Array.make rq.n "" in
  let (), wall =
    Clock.time (fun () ->
        for k = 0 to rq.n - 1 do
          Trace.next_trace tr;
          let p = Trace.with_span tr "engine.parse" (fun () -> Serve.Engine.parse eng rq.lines.(k)) in
          out.(k) <-
            Trace.with_span tr ("engine." ^ op_name rq.kinds.(k)) (fun () -> Serve.Engine.execute eng p)
        done)
  in
  (out, wall)

(* Layer costs outside the engine, on the recorded writes replayed
   against a fresh twin graph and accumulator. *)
let twin_layers (ctx : Ctx.t) st tr rq =
  let _, g, _, _ = Fixture.generate ~seed:ctx.seed ~depth:ctx.depth in
  ignore (G.propagate Fixture.dependence g);
  ignore (G.root_hash g);
  let acc = let a, b = beta_prior in Experience.Stream.demand_beta ~a ~b in
  for k = 0 to rq.n - 1 do
    match rq.kinds.(k) with
    | Edit ->
      let i = Option.get (G.find g st.f.leaves.(rq.target.(k))) in
      Trace.next_trace tr;
      Trace.with_span tr "graph.refresh" (fun () ->
          G.set_evidence g i rq.value.(k);
          ignore (G.refresh Fixture.dependence g));
      Trace.with_span tr "graph.rehash" (fun () -> ignore (G.root_hash g))
    | Ingest ->
      Trace.next_trace tr;
      Trace.with_span tr "stream.observe" (fun () ->
          Experience.Stream.observe_demands acc ~demands:1 ~failures:rq.fails.(k))
    | Evaluate -> ()
  done

(* The wire format alone, on the recorded request and response lines. *)
let protocol_layers tr rq responses =
  for k = 0 to min 5000 rq.n - 1 do
    Trace.next_trace tr;
    ignore (Trace.with_span tr "protocol.parse" (fun () -> P.parse rq.lines.(k)));
    let v = P.parse responses.(k) in
    ignore (Trace.with_span tr "protocol.print" (fun () -> P.print v))
  done

(* --- the run --------------------------------------------------------------------------- *)

(* The untraced reference step is cut into windows of about this many
   seconds, each scaled by the calibration samples around it. *)
let window_s = 1.5

let run ~write (ctx : Ctx.t) ~trace =
  let st = prepare ctx ~write in
  let m = Speed.meter ctx.kernel in
  let setup_s = ref [] in
  (* [times] set-ups, each but the last stopped at once; the last is
     returned. *)
  let set_up ~times =
    let rec go k =
      let (l, s), f = Speed.measure m (fun () -> Clock.time (fun () -> setup ctx st k)) in
      setup_s := (s *. f) :: !setup_s;
      if k >= times then l else (stop l; go (k + 1))
    in
    go 1
  in
  let live = set_up ~times:(if trace then 1 else ctx.setups) in
  let env =
    [
      ("nodes", P.Num (float_of_int (Fixture.nodes st.f)));
      ("working_set", P.Num (float_of_int (Array.length st.ws)));
      ("reference_rate", P.Num reference_rate);
    ]
  in
  if not trace then begin
    let windows = max 1 (int_of_float (Float.round (ctx.seconds /. window_s))) in
    let duration = ctx.seconds /. float_of_int windows in
    let steps =
      List.init windows (fun _ ->
          let (step, cpu_s), f =
            Speed.measure m (fun () ->
                let cpu0 = Proc.cpu_s live.d.pid in
                let step, _, check = open_step st live ~rate:reference_rate ~duration in
                ((step, check), Proc.cpu_s live.d.pid -. cpu0))
          in
          (step, cpu_s *. f, f))
    in
    let peak = Client.peak_mib live.d in
    stop live;
    stop (set_up ~times:ctx.setups);
    let latency_us =
      Array.concat (List.map (fun (((s : Client.step), _), _, f) -> Array.map (fun x -> x *. f) s.latency_us) steps)
    in
    let n = Array.length latency_us in
    let failed =
      List.fold_left (fun acc ((s, c), _, _) -> acc + failures s + c.wrong) 0 steps
    in
    let cpu_s = List.fold_left (fun acc (_, c, _) -> acc +. c) 0.0 steps in
    {
      Ctx.attempted = n;
      failed;
      correct = failed = 0 && List.for_all (fun ((_, c), _, _) -> c.mirror_ok) steps;
      metrics =
        [
          ("setup_s", Stats.median (Array.of_list !setup_s));
          ("p50_ms", (Stats.summarize latency_us).p50 /. 1e3);
          ("cpu_ms", 1e3 *. cpu_s /. float_of_int (max 1 n));
          ("peak_rss_mb", peak);
        ];
      env =
        env
        @ [ ("latency_us", Report.summary latency_us); ("calibration_s", Report.summary (Speed.samples m)) ];
      spans = [];
    }
  end
  else begin
    let reference, rq, ref_check =
      open_step st live ~rate:reference_rate ~duration:(0.5 *. ctx.seconds)
    in
    let rates = Metrics.ladder_rates in
    let duration = 0.5 *. ctx.seconds /. float_of_int (List.length rates) in
    let ladder =
      List.map (fun rate -> open_step st live ~rate ~duration) rates
    in
    stop live;
    let steps =
      List.map
        (fun ((s : Client.step), _, _) ->
          { Stats.rate = s.rate; good = Stats.within s.latency_us ~limit:limit_us; shed = s.shed })
        ladder
    in
    let max_rps, knee = Stats.max_rps steps in
    let checks = ref_check :: List.map (fun (_, _, c) -> c) ladder in
    let tr = Trace.create () in
    let out, traced_wall = replay tr (fresh_engine st) rq in
    let _, plain_wall = replay (Trace.off ()) (fresh_engine st) rq in
    let replay_ok =
      write
      || Array.for_all Fun.id
           (Array.mapi (fun k line -> Client.response_bits line = st.ws_bits.(rq.target.(k))) out)
    in
    protocol_layers tr rq out;
    if write then begin
      twin_layers ctx st tr rq;
      Numerics.Parallel.with_pool ~num_domains:ctx.nproc (Ctx.map_chunks_spans tr)
    end;
    let spans = Trace.spans tr in
    let groups = Trace.self_by_name spans in
    let us = Ctx.self_median groups ~scale:1e-3 and us99 = Ctx.self_p99 groups ~scale:1e-3 in
    (* Per request: engine parse plus execute, the in-process cost. *)
    let per_request = Hashtbl.create 4096 in
    List.iter
      (fun (s : Trace.span) ->
        if String.length s.name > 7 && String.sub s.name 0 7 = "engine." then
          Hashtbl.replace per_request s.trace
            (Trace.duration_ns s +. Option.value ~default:0.0 (Hashtbl.find_opt per_request s.trace)))
      spans;
    let engine_p50_us = Stats.median (Array.of_seq (Hashtbl.to_seq_values per_request)) /. 1e3 in
    let lat = reference.latency_us in
    let p50 = (Stats.summarize lat).p50 in
    let failed =
      failures reference + List.fold_left (fun n c -> n + c.wrong) 0 checks
      + if replay_ok then 0 else 1
    in
    (* Over the reference step alone. *)
    let hits, misses, memo_entries = ref_check.memo in
    let hits0, misses0 = live.memo0 in
    let hit_ratio = (hits -. hits0) /. Float.max 1.0 (hits -. hits0 +. misses -. misses0) in
    {
      Ctx.attempted = Array.length lat;
      failed;
      correct = failed = 0 && List.for_all (fun c -> c.mirror_ok) checks;
      metrics =
        [
          ("fail_frac", float_of_int failed /. float_of_int (max 1 (Array.length lat)));
          ("cli.start_ms", Ctx.cli_start_ms ctx);
          ("serve.p50_us", p50);
          ("serve.p99_us", p99 lat);
          ("serve.load_s", live.load_s);
          ("serve.cold_eval_ms", 1e3 *. live.cold_eval_s);
          ("protocol.parse_us", us "protocol.parse");
          ("protocol.print_us", us "protocol.print");
          ("engine.parse_us", us "engine.parse");
          ("engine.evaluate_us", us "engine.evaluate");
          ("engine.evaluate_p99_us", us99 "engine.evaluate");
          ("engine.edit_us", us "engine.edit");
          ("engine.edit_p99_us", us99 "engine.edit");
          ("engine.ingest_us", us "engine.ingest");
          ("engine.ingest_p99_us", us99 "engine.ingest");
          ("engine.hit_ratio", hit_ratio);
          ("engine.memo_entries", memo_entries);
          ("graph.refresh_us", us "graph.refresh");
          ("graph.rehash_us", us "graph.rehash");
          ("stream.observe_us", us "stream.observe");
          ("parallel.map_chunks_us", us "parallel.map_chunks");
          ("server.overhead_us", p50 -. engine_p50_us);
          ( "server.shed",
            float_of_int (List.fold_left (fun n ((s : Client.step), _, _) -> n + s.shed) reference.shed ladder) );
          ("client.lag_p99_us", p99 reference.lag_us);
          ("ladder.max_rps", max_rps);
          ("ladder.knee_inside", if knee = Stats.Inside then 1.0 else 0.0);
          ("trace.overhead_frac", (traced_wall /. plain_wall) -. 1.0);
        ];
      env =
        env
        @ [
            ( "ladder",
              P.Arr
                (List.map2
                   (fun (s : Stats.step) ((c : Client.step), _, _) ->
                     P.Obj
                       [
                         ("rate", P.Num s.rate);
                         ("sent", P.Num (float_of_int (Array.length c.latency_us)));
                         ("good", P.Num s.good);
                         ("shed", P.Num (float_of_int s.shed));
                         ("p99_us", P.Num (p99 c.latency_us));
                         ("lag_p99_us", P.Num (p99 c.lag_us));
                       ])
                   steps ladder) );
            ("knee", P.Str (match knee with Stats.Inside -> "inside" | Below_ladder -> "below" | Above_ladder -> "above"));
          ];
      spans;
    }
  end
