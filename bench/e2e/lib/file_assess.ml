(* file-assess: the assessor's path on a case kept in version control.
   A closed loop of one CLI process at a time; each assessment is
   [confcase propagate FILE] followed by [confcase audit FILE].  The
   traced run replays both commands' call sequences in-process through
   the public functions of each layer. *)

module G = Casekit.Graph
module D = Analysis.Diagnostic
module F = Casekit.Case_format

let rho_arg = Printf.sprintf "%g" Fixture.rho
let propagate_args (f : Fixture.t) = [ "propagate"; f.path; "--dependence"; rho_arg ]

let audit_args (f : Fixture.t) =
  [ "audit"; f.path; "--target"; Printf.sprintf "%g" Fixture.target; "--dependence"; rho_arg ]

let audit_options = { Analysis.Audit.default_options with target = Some Fixture.target; dependence = Fixture.dependence }

(* --- expected outputs ------------------------------------------------------------ *)

(* The lines of [confcase propagate] that do not depend on timing. *)
let propagate_lines g ~root ~lo ~hi =
  [
    Printf.sprintf "Graph: %d nodes, %d edges, %d levels%s" (G.size g) (G.edge_count g)
      (G.levels g)
      (if G.is_tree g then "" else Printf.sprintf " (DAG, max overlap %.3f)" (G.max_overlap g));
    Printf.sprintf "Root confidence: %.6f" root;
    Printf.sprintf "Under any dependence: [%.6f, %.6f]" lo hi;
  ]

let plural n = if n = 1 then "" else "s"

(* What [confcase audit] prints for a diagnostic list, and its exit code. *)
let audit_stdout diags =
  let b = Buffer.create 4096 in
  List.iter (fun d -> Buffer.add_string b (D.to_string d); Buffer.add_char b '\n') diags;
  Printf.bprintf b "%d error%s, %d warning%s, %d info%s\n" (D.errors diags)
    (plural (D.errors diags)) (D.warnings diags) (plural (D.warnings diags)) (D.infos diags)
    (plural (D.infos diags));
  Buffer.contents b

type expected = { prop_lines : string list; audit_out : string; audit_status : Unix.process_status }

let expected (f : Fixture.t) =
  let diags = Analysis.Audit.case ~file:f.path ~options:audit_options f.text in
  {
    prop_lines =
      propagate_lines f.graph
        ~root:(G.propagate Fixture.dependence f.graph)
        ~lo:(G.propagate G.Frechet_lower f.graph)
        ~hi:(G.propagate G.Frechet_upper f.graph);
    audit_out = audit_stdout diags;
    audit_status = Unix.WEXITED (D.exit_code ~strict:false diags);
  }

let propagate_ok exp (r : Proc.run) =
  Proc.exited_ok r
  && List.for_all (fun l -> List.mem l (String.split_on_char '\n' r.stdout)) exp.prop_lines

let audit_ok exp (r : Proc.run) = r.status = exp.audit_status && r.stdout = exp.audit_out

(* --- set-up and the measured loop ----------------------------------------------------- *)

(* [setup ctx m ~times] — write the fixture [times] times; returns it and
   the wall of each write, scaled by [m].  Each write starts from a
   collected heap, so earlier fixtures' garbage does not land in a later
   write's time. *)
let setup (ctx : Ctx.t) m ~times =
  let path = Ctx.file ctx "file-assess.case" in
  let runs =
    List.init times (fun _ ->
        Gc.full_major ();
        let (f, s), k = Speed.measure m (fun () -> Clock.time (fun () -> Fixture.write ~seed:ctx.seed ~depth:ctx.depth path)) in
        (f, s *. k))
  in
  let f = fst (List.hd runs) in
  if not (Fixture.tree_matches_graph f) then failwith "fixture: tree and graph root bits differ";
  (f, List.map snd runs)

(* One assessment; [wall_s] and [cpu_s] are both commands' sums, each
   scaled by the calibration samples around it. *)
type pair = {
  prop : Proc.run;
  audit : Proc.run;
  ok_prop : bool;
  ok_audit : bool;
  wall_s : float;
  cpu_s : float;
}

let assess ctx m exp f =
  let prop, kp = Speed.measure m (fun () -> Proc.run ctx.Ctx.confcase (propagate_args f)) in
  let audit, ka = Speed.measure m (fun () -> Proc.run ctx.Ctx.confcase (audit_args f)) in
  {
    prop;
    audit;
    ok_prop = propagate_ok exp prop;
    ok_audit = audit_ok exp audit;
    wall_s = (prop.wall_s *. kp) +. (audit.wall_s *. ka);
    cpu_s = (prop.cpu_s *. kp) +. (audit.cpu_s *. ka);
  }
let pair_failures p = (if p.ok_prop then 0 else 1) + if p.ok_audit then 0 else 1

(* --- traced replay ------------------------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [confcase propagate FILE]: read, parse, bridge, four propagations. *)
let replay_propagate tr minor_words (f : Fixture.t) =
  Trace.next_trace tr;
  Trace.with_span tr "cli.propagate" (fun () ->
      let text = Trace.with_span tr "io.read" (fun () -> read_file f.path) in
      let mw = Gc.minor_words () in
      let node = Trace.with_span tr "case_format.parse" (fun () -> F.parse text) in
      minor_words := (Gc.minor_words () -. mw) :: !minor_words;
      let g = Trace.with_span tr "graph.of_node" (fun () -> G.of_node node) in
      let prop dep = Trace.with_span tr "graph.propagate" (fun () -> G.propagate dep g) in
      let root = prop Fixture.dependence in
      let lo = prop G.Frechet_lower in
      let hi = prop G.Frechet_upper in
      ignore (prop Fixture.dependence);
      (g, propagate_lines g ~root ~lo ~hi))

(* [confcase audit FILE]: the call sequence inside [Analysis.Audit.case],
   made through the same public functions, so each gets its own span. *)
let replay_audit tr (f : Fixture.t) =
  Trace.next_trace tr;
  Trace.with_span tr "cli.audit" (fun () ->
      let text = Trace.with_span tr "io.read" (fun () -> read_file f.path) in
      let raw = Trace.with_span tr "case_format.parse_raw" (fun () -> F.parse_raw text) in
      let static = Trace.with_span tr "case_rules.check" (fun () -> Analysis.Case_rules.check_raw raw) in
      let static = D.with_file f.path static in
      let node = Trace.with_span tr "case_format.parse" (fun () -> F.parse text) in
      let g = Trace.with_span tr "graph.of_node" (fun () -> G.of_node node) in
      let table =
        Trace.with_span tr "audit.locate" (fun () ->
            let table = Hashtbl.create 64 in
            List.iter
              (fun (rn : F.raw_node) ->
                if not (Hashtbl.mem table rn.id) then Hashtbl.add table rn.id (rn.line, rn.id_col))
              (Trace.with_span tr "case_format.parse_raw" (fun () -> F.parse_raw text));
            table)
      in
      let locate i = match G.id_of g i with "" -> None | id -> Hashtbl.find_opt table id in
      let options = { audit_options with structural = false } in
      let audit = Trace.with_span tr "audit.graph" (fun () -> Analysis.Audit.graph ~options ~locate g) in
      let diags = D.sort (static @ D.with_file f.path audit) in
      audit_stdout diags)

(* --- the run ------------------------------------------------------------------------------- *)

let run (ctx : Ctx.t) ~trace =
  let m = Speed.meter ctx.kernel in
  let f, before = setup ctx m ~times:(if trace then 1 else ctx.setups) in
  let exp = expected f in
  let env = [ ("nodes", Serve.Protocol.Num (float_of_int (Fixture.nodes f))) ] in
  if not trace then begin
    ignore (assess ctx m exp f);
    let pairs = Ctx.repeat_for ctx.seconds (fun _ -> assess ctx m exp f) in
    let _, after = setup ctx m ~times:ctx.setups in
    let setup_s = Stats.median (Array.of_list (before @ after)) in
    let walls = Array.of_list (List.map (fun p -> p.wall_s) pairs) in
    let p50_s = Stats.median walls in
    let failed = List.fold_left (fun acc p -> acc + pair_failures p) 0 pairs in
    let peak = Ctx.median_of (fun p -> float_of_int (max p.prop.peak_kib p.audit.peak_kib)) pairs in
    {
      Ctx.attempted = 2 * List.length pairs;
      failed;
      correct = failed = 0;
      metrics =
        [
          ("setup_s", setup_s);
          ("p50_ms", 1e3 *. p50_s);
          ("cpu_ms", 1e3 *. Ctx.median_of (fun p -> p.cpu_s) pairs);
          ("peak_rss_mb", peak /. 1024.0);
        ];
      env = env @ [ ("timing_s", Report.summary walls); ("calibration_s", Report.summary (Speed.samples m)) ];
      spans = [];
    }
  end
  else begin
    let cli_start_ms = Ctx.cli_start_ms ctx in
    let tr = Trace.create () and off = Trace.off () in
    let minor_words = ref [] in
    let replay_ok = ref true in
    (* One repetition: the two CLI commands, then both replayed traced and
       untraced, in alternating order so that neither always runs on the
       other's garbage; in the first two, also the whole-function and
       first-hash spans that the CLI replays lack.  Interleaving the CLI runs with the replays
       lets both see the same machine when coverage compares them. *)
    let rep k =
      let pair = assess ctx m exp f in
      let traced () =
        let (g, lines), t_prop = Clock.time (fun () -> replay_propagate tr minor_words f) in
        let out, t_audit = Clock.time (fun () -> replay_audit tr f) in
        if lines <> exp.prop_lines || out <> exp.audit_out then replay_ok := false;
        (g, t_prop, t_audit)
      in
      let plain () =
        let _, t_prop = Clock.time (fun () -> replay_propagate off (ref []) f) in
        let _, t_audit = Clock.time (fun () -> replay_audit off f) in
        t_prop +. t_audit
      in
      let (g, t_prop, t_audit), plain_s =
        if k mod 2 = 0 then
          let t = traced () in
          (t, plain ())
        else
          let p = plain () in
          (traced (), p)
      in
      if k < 2 then begin
        Trace.next_trace tr;
        ignore (Trace.with_span tr "graph.structural_hash" (fun () -> G.root_hash g));
        Trace.next_trace tr;
        ignore (Trace.with_span tr "audit.case" (fun () ->
            Analysis.Audit.case ~file:f.path ~options:audit_options f.text))
      end;
      (pair, t_prop, t_audit, (t_prop +. t_audit) /. plain_s)
    in
    let reps = Ctx.repeat_for ~min:2 ctx.seconds rep in
    let pairs = List.map (fun (p, _, _, _) -> p) reps in
    (* Coverage compares the fastest CLI run with the fastest traced replay:
       the machine's bursts of contention slow single runs at random, and
       the minima are the runs they spared. *)
    let least f = List.fold_left (fun m x -> Float.min m (f x)) infinity reps in
    let coverage replay cli = ((cli_start_ms *. 1e-3) +. least replay) /. least cli in
    let failed = List.fold_left (fun acc p -> acc + pair_failures p) 0 pairs in
    let cli_prop_s = Ctx.median_of (fun p -> p.prop.wall_s) pairs in
    let cli_audit_s = Ctx.median_of (fun p -> p.audit.wall_s) pairs in
    let spans = Trace.spans tr in
    let groups = Trace.self_by_name spans in
    let s = Ctx.self_median groups ~scale:1e-9 in
    let failed = failed + if !replay_ok then 0 else 1 in
    {
      Ctx.attempted = 2 * List.length pairs;
      failed;
      correct = failed = 0;
      metrics =
        [
          ("fail_frac", float_of_int failed /. float_of_int (2 * List.length pairs));
          ("cli.start_ms", cli_start_ms);
          ("cli.propagate_s", cli_prop_s);
          ("cli.audit_s", cli_audit_s);
          ("io.read_s", s "io.read");
          ("case_format.parse_raw_s", s "case_format.parse_raw");
          ("case_format.parse_s", s "case_format.parse");
          ("case_format.parse_minor_mw", Stats.median (Array.of_list !minor_words) /. 1e6);
          ("case_rules.check_s", s "case_rules.check");
          ("graph.of_node_s", s "graph.of_node");
          ("graph.propagate_ms", 1e3 *. s "graph.propagate");
          ("graph.structural_hash_ms", 1e3 *. s "graph.structural_hash");
          ("audit.graph_s", s "audit.graph");
          ("audit.case_s", s "audit.case");
          ( "file.coverage.propagate",
            coverage (fun (_, t, _, _) -> t) (fun (p, _, _, _) -> p.prop.wall_s) );
          ( "file.coverage.audit",
            coverage (fun (_, _, t, _) -> t) (fun (p, _, _, _) -> p.audit.wall_s) );
          ("trace.overhead_frac", Ctx.median_of (fun (_, _, _, o) -> o) reps -. 1.0);
        ];
      env;
      spans;
    }
  end
