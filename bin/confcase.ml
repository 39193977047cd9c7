(* confcase — command-line interface to the confidence calculus.

   Subcommands:
     figures      regenerate the paper's tables and figures (+ CSV export)
     judge        judge a SIL from a belief (fitted or from a belief file)
     conservative solve the worst-case bound in either direction
     delphi       run the simulated expert panel
     experience   plan failure-free testing toward a confidence target
     elicit       fit a belief from elicited points, emit a belief file
     case         evaluate a dependability-case file
     propagate    flat CSR propagation at scale (+ generator, edits)
     check        statically check case/belief files (lib/analysis)
     audit        semantic audit: attainability, vacuity, SPOF
     risk         layer-of-protection analysis with confidence
     serve        hot evaluation daemon over newline-delimited JSON
     stream       streaming evidence: online posteriors at traffic scale

   Every Cmd.info carries ~version (sourced from dune-project via the
   generated Version module) and a one-line ~doc. *)

open Cmdliner

let cmd_info name ~doc ?man () =
  Cmd.info name ~version:Version.version ~doc ?man

let positive_float ~what v =
  if v <= 0.0 then `Error (Printf.sprintf "%s must be positive" what)
  else `Ok v

(* --- figures ------------------------------------------------------------ *)

let figures_cmd =
  let id =
    let doc = "Experiment id (omit for all).  Known ids: $(b,table1), \
               $(b,figure1)-$(b,figure5), $(b,conservative), \
               $(b,perfection), $(b,standards), $(b,gamma), $(b,tailcut), \
               $(b,pbox), $(b,multileg), $(b,mtbf), $(b,acarp), $(b,decisions)." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let csv_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR"
          ~doc:"Also write every figure's raw series as CSV files into DIR")
  in
  let write_csvs dir =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.iter
      (fun (name, content) ->
        let path = Filename.concat dir name in
        let oc = open_out path in
        output_string oc content;
        close_out oc;
        Printf.printf "wrote %s\n" path)
      (Repro.Experiments.csv_exports ())
  in
  let run id csv =
    (match csv with Some dir -> write_csvs dir | None -> ());
    match id with
    | None when csv <> None -> `Ok ()
    | None ->
      List.iter
        (fun (i, anchor, f) ->
          Printf.printf "################ [%s] %s ################\n\n%s\n" i
            anchor (f ()))
        Repro.Experiments.all;
      `Ok ()
    | Some id ->
      (match Repro.Experiments.run_one id with
      | out ->
        print_string out;
        `Ok ()
      | exception Not_found ->
        `Error (false, Printf.sprintf "unknown experiment id %s" id))
  in
  let info =
    cmd_info "figures" ~doc:"Regenerate the paper's tables and figures" ()
  in
  Cmd.v info Term.(ret (const run $ id $ csv_dir))

(* --- judge --------------------------------------------------------------- *)

let judge_cmd =
  let mode_arg =
    Arg.(
      value
      & opt float 3e-3
      & info [ "mode" ] ~docv:"PFD" ~doc:"Most likely pfd of the judgement")
  in
  let sigma_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "sigma" ] ~docv:"S" ~doc:"Spread of the lognormal judgement")
  in
  let bound_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "bound" ] ~docv:"PFD"
          ~doc:"Elicited bound (use with --confidence instead of --sigma)")
  in
  let confidence_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "confidence" ] ~docv:"P" ~doc:"Confidence that pfd <= bound")
  in
  let gamma_arg =
    Arg.(
      value & flag
      & info [ "gamma" ] ~doc:"Use a gamma judgement instead of lognormal")
  in
  let belief_file_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "belief-file" ] ~docv:"FILE"
          ~doc:"Read the belief from a belief file instead of fitting one")
  in
  let run mode sigma bound confidence use_gamma belief_file =
    match positive_float ~what:"--mode" mode with
    | `Error e -> `Error (false, e)
    | `Ok mode ->
      let family =
        if use_gamma then Sil.Judgement.Gamma else Sil.Judgement.Lognormal
      in
      let judgement =
        match (belief_file, sigma, bound, confidence) with
        | Some path, None, None, None ->
          (try Ok (`Belief (Elicit.Belief_format.parse_file path))
           with Elicit.Belief_format.Parse_error e ->
             Error (Printf.sprintf "%s:%d: %s" path e.line e.message))
        | None, Some s, None, None ->
          Ok (`Dist (Sil.Judgement.belief_of_mode_sigma family ~mode ~sigma:s))
        | None, None, Some b, Some c ->
          (try
             Ok
               (`Dist
                 (match family with
                 | Sil.Judgement.Lognormal ->
                   Dist.Fit.lognormal_of_mode_confidence ~mode ~bound:b
                     ~confidence:c
                 | Sil.Judgement.Gamma ->
                   Dist.Fit.gamma_of_mode_confidence ~mode ~bound:b
                     ~confidence:c))
           with Dist.Fit.Fit_error msg -> Error msg)
        | _ ->
          Error
            "provide exactly one of: --belief-file, --sigma, or --bound with \
             --confidence"
      in
      (match judgement with
      | Error msg -> `Error (false, msg)
      | Ok source ->
        let belief =
          match source with
          | `Belief b -> b
          | `Dist d -> Dist.Mixture.of_dist d
        in
        (match source with
        | `Dist d ->
          Printf.printf "Judgement: %s\n  mean pfd %.4g (mode %.4g)\n"
            d.Dist.name d.Dist.mean (Option.get d.Dist.mode)
        | `Belief b ->
          Printf.printf "Judgement: %s\n  mean pfd %.4g\n"
            (Dist.Mixture.name b) (Dist.Mixture.mean b));
        Printf.printf "  SIL by mean: %s\n"
          (Sil.Band.classification_to_string
             (Sil.Judgement.judged_by_mean belief ~mode:Sil.Band.Low_demand));
        List.iter
          (fun band ->
            Printf.printf "  P(%s or better) = %.4f\n"
              (Sil.Band.to_string band)
              (Sil.Judgement.confidence_at_least belief ~mode:Sil.Band.Low_demand
                 band))
          (List.rev Sil.Band.all);
        List.iter
          (fun conf ->
            match
              Confidence.Decision.strongest_claimable ~confidence:conf belief
            with
            | Some band ->
              Printf.printf "  claimable at %.0f%%: %s\n" (conf *. 100.0)
                (Sil.Band.to_string band)
            | None ->
              Printf.printf "  claimable at %.0f%%: nothing\n" (conf *. 100.0))
          [ 0.7; 0.9; 0.99 ];
        `Ok ())
  in
  let info =
    cmd_info "judge" ~doc:"Judge a SIL from a belief about the pfd" ()
  in
  Cmd.v info
    Term.(
      ret
        (const run $ mode_arg $ sigma_arg $ bound_arg $ confidence_arg
       $ gamma_arg $ belief_file_arg))

(* --- conservative --------------------------------------------------------- *)

let conservative_cmd =
  let target_arg =
    Arg.(
      required
      & opt (some float) None
      & info [ "target" ] ~docv:"P"
          ~doc:"Required failure probability on a random demand")
  in
  let bound_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "bound" ] ~docv:"PFD" ~doc:"Claim bound y* (solve for confidence)")
  in
  let confidence_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "confidence" ] ~docv:"P"
          ~doc:"Claim confidence (solve for the bound)")
  in
  let perfection_arg =
    Arg.(
      value
      & opt float 0.0
      & info [ "perfection" ] ~docv:"P0"
          ~doc:"Probability mass on pfd = 0 (footnote-3 variant)")
  in
  let run target bound confidence p0 =
    try
      match (bound, confidence) with
      | Some y, Some c ->
        let claim = Confidence.Claim.make ~bound:y ~confidence:c in
        let b =
          if p0 > 0.0 then
            Confidence.Conservative.failure_bound_perfection claim ~p0
          else Confidence.Conservative.failure_bound claim
        in
        Printf.printf
          "Worst-case failure probability: %.6g (%s the target %.4g)\n" b
          (if b <= target then "meets" else "MISSES")
          target;
        `Ok ()
      | Some y, None ->
        let c = Confidence.Conservative.required_confidence ~target ~bound:y in
        Printf.printf
          "To support %.4g with a claim at %.4g: confidence >= %.6f (doubt \
           <= %.4g)\n"
          target y c (1.0 -. c);
        `Ok ()
      | None, Some c ->
        let y = Confidence.Conservative.required_bound ~target ~confidence:c in
        Printf.printf
          "To support %.4g at confidence %.4f: claim bound <= %.6g\n" target c
          y;
        `Ok ()
      | None, None ->
        List.iter
          (fun (label, claim, b) ->
            Printf.printf "%-40s %s -> bound %.4g\n" label
              (Confidence.Claim.to_string claim)
              b)
          (Confidence.Conservative.examples ~target);
        `Ok ()
    with
    | Confidence.Conservative.Infeasible msg -> `Error (false, msg)
    | Invalid_argument msg -> `Error (false, msg)
  in
  let info =
    cmd_info "conservative"
      ~doc:"Solve the worst-case bound x + y - xy in either direction" ()
  in
  Cmd.v info
    Term.(
      ret (const run $ target_arg $ bound_arg $ confidence_arg $ perfection_arg))

(* --- delphi ---------------------------------------------------------------- *)

let delphi_cmd =
  let seed_arg =
    Arg.(value & opt int 61508 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed")
  in
  let experts_arg =
    Arg.(
      value & opt int 12 & info [ "experts" ] ~docv:"N" ~doc:"Panel size")
  in
  let doubters_arg =
    Arg.(
      value & opt int 3 & info [ "doubters" ] ~docv:"N" ~doc:"Doubter count")
  in
  let true_pfd_arg =
    Arg.(
      value
      & opt float 3e-3
      & info [ "true-pfd" ] ~docv:"PFD" ~doc:"Scenario ground truth")
  in
  let run seed n_experts n_doubters true_pfd =
    try
      let config =
        { Elicit.Delphi.default_config with seed; n_experts; n_doubters; true_pfd }
      in
      let result = Elicit.Delphi.run config in
      print_string (Elicit.Delphi.summary_table result);
      let final = Elicit.Delphi.final result in
      Printf.printf
        "\nFinal pooled judgement: mean pfd %.4g, P(SIL2+) = %.3f\n"
        final.pooled_mean final.confidence_sil2;
      `Ok ()
    with Invalid_argument msg -> `Error (false, msg)
  in
  let info = cmd_info "delphi" ~doc:"Run the simulated expert panel" () in
  Cmd.v info
    Term.(
      ret (const run $ seed_arg $ experts_arg $ doubters_arg $ true_pfd_arg))

(* --- experience ------------------------------------------------------------ *)

let experience_cmd =
  let mode_arg =
    Arg.(
      value & opt float 3e-3 & info [ "mode" ] ~docv:"PFD" ~doc:"Judgement mode")
  in
  let sigma_arg =
    Arg.(
      value & opt float 0.9 & info [ "sigma" ] ~docv:"S" ~doc:"Judgement spread")
  in
  let confidence_arg =
    Arg.(
      value
      & opt float 0.9
      & info [ "confidence" ] ~docv:"P" ~doc:"Required confidence")
  in
  let max_arg =
    Arg.(
      value
      & opt int 1_000_000
      & info [ "max-demands" ] ~docv:"N" ~doc:"Testing budget")
  in
  let run mode sigma confidence max_demands =
    try
      let prior =
        Dist.Mixture.of_dist (Dist.Lognormal.of_mode_sigma ~mode ~sigma)
      in
      let schedule =
        Experience.Provisional.upgrade_schedule prior
          ~required_confidence:confidence ~max_demands
      in
      print_string (Experience.Provisional.schedule_table schedule);
      `Ok ()
    with Invalid_argument msg -> `Error (false, msg)
  in
  let info =
    cmd_info "experience"
      ~doc:"Plan failure-free testing toward a confidence target" ()
  in
  Cmd.v info
    Term.(ret (const run $ mode_arg $ sigma_arg $ confidence_arg $ max_arg))

(* --- elicit ------------------------------------------------------------------ *)

let elicit_cmd =
  let most_likely_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "most-likely" ] ~docv:"PFD" ~doc:"The expert's most likely value")
  in
  let points_arg =
    Arg.(
      value
      & opt_all (t2 ~sep:':' float float) []
      & info [ "point" ] ~docv:"BOUND:CONF"
          ~doc:"An elicited point P(pfd <= BOUND) = CONF (repeatable)")
  in
  let perfection_arg =
    Arg.(
      value
      & opt float 0.0
      & info [ "perfection" ] ~docv:"P0"
          ~doc:"Probability the system is perfect (adds an atom at 0)")
  in
  let gamma_arg =
    Arg.(value & flag & info [ "gamma" ] ~doc:"Fit a gamma instead of lognormal")
  in
  let run most_likely points perfection use_gamma =
    try
      let points =
        List.map
          (fun (bound, confidence) -> Elicit.Belief.point ~bound ~confidence)
          points
      in
      let a = Elicit.Belief.assessment ?most_likely points in
      let d =
        if use_gamma then Elicit.Belief.fit_gamma a
        else Elicit.Belief.fit_lognormal a
      in
      let belief =
        if perfection > 0.0 then
          Dist.Mixture.with_perfection ~p0:perfection
            (Dist.Mixture.of_dist d)
        else Dist.Mixture.of_dist d
      in
      (* Emit a belief file on stdout: elicit | tee x.belief, then
         judge --belief-file x.belief. *)
      print_string (Elicit.Belief_format.print belief);
      Printf.eprintf "# fitted: %s; mean pfd %.4g\n" (Dist.Mixture.name belief)
        (Dist.Mixture.mean belief);
      `Ok ()
    with
    | Dist.Fit.Fit_error msg -> `Error (false, msg)
    | Invalid_argument msg -> `Error (false, msg)
  in
  let info =
    cmd_info "elicit"
      ~doc:"Fit a belief from elicited points and print it as a belief file" ()
  in
  Cmd.v info
    Term.(
      ret (const run $ most_likely_arg $ points_arg $ perfection_arg $ gamma_arg))

(* --- case -------------------------------------------------------------------- *)

let case_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Case file (see casekit's Case_format)")
  in
  let rho_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "dependence" ] ~docv:"RHO"
          ~doc:"Evaluate at this support correlation instead of independence")
  in
  let sensitivities_arg =
    Arg.(
      value & flag
      & info [ "sensitivities" ]
          ~doc:"Rank evidence and assumptions by influence on the root")
  in
  let run file rho show_sens =
    let text =
      let ic = open_in file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    match Casekit.Case_format.parse text with
    | exception Casekit.Case_format.Parse_error e ->
      `Error (false, Printf.sprintf "%s:%d: %s" file e.line e.message)
    | exception Invalid_argument msg -> `Error (false, msg)
    | case ->
      print_string (Casekit.Node.render case);
      let dep =
        match rho with
        | None -> Casekit.Propagate.Independent
        | Some r -> Casekit.Propagate.Correlated r
      in
      Printf.printf "\nRoot confidence: %.5f\n"
        (Casekit.Propagate.confidence dep case);
      let lo, hi = Casekit.Propagate.bounds case in
      Printf.printf "Under any dependence: [%.5f, %.5f]\n" lo hi;
      if show_sens then begin
        print_endline "\nEvidence sensitivities (d root / d leaf):";
        Casekit.Propagate.leaf_sensitivities dep case
        |> List.sort (fun (_, a) (_, b) -> compare b a)
        |> List.iter (fun (id, s) -> Printf.printf "  %-12s %.4f\n" id s);
        let assumptions = Casekit.Propagate.assumption_sensitivities dep case in
        if assumptions <> [] then begin
          print_endline "Assumption sensitivities:";
          List.iter
            (fun (id, s) -> Printf.printf "  %-12s %.4f\n" id s)
            (List.sort (fun (_, a) (_, b) -> compare b a) assumptions)
        end
      end;
      `Ok ()
  in
  let info =
    cmd_info "case" ~doc:"Evaluate a dependability-case file" ()
  in
  Cmd.v info Term.(ret (const run $ file_arg $ rho_arg $ sensitivities_arg))

(* --- propagate ---------------------------------------------------------------- *)

let propagate_cmd =
  let file_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Case file to propagate (omit with $(b,--generate))")
  in
  let generate_arg =
    Arg.(
      value & flag
      & info [ "generate" ]
          ~doc:"Propagate a synthetic case from the generator instead of FILE")
  in
  let legs_arg =
    Arg.(value & opt int 3 & info [ "legs" ] ~docv:"N" ~doc:"Generator: legs")
  in
  let fanout_arg =
    Arg.(
      value & opt int 4
      & info [ "fanout" ] ~docv:"N" ~doc:"Generator: children per goal")
  in
  let depth_arg =
    Arg.(
      value & opt int 3
      & info [ "depth" ] ~docv:"N" ~doc:"Generator: goal levels per leg")
  in
  let shared_arg =
    Arg.(
      value & opt float 0.0
      & info [ "shared" ] ~docv:"P"
          ~doc:"Generator: probability a later-leg leaf reuses first-leg \
                evidence (makes the case a DAG)")
  in
  let seed_arg =
    Arg.(
      value & opt int 61508 & info [ "seed" ] ~docv:"N" ~doc:"Generator: seed")
  in
  let dependence_arg =
    Arg.(
      value
      & opt string "independent"
      & info [ "dependence" ] ~docv:"MODEL"
          ~doc:"$(b,independent), $(b,frechet-lower), $(b,frechet-upper), or \
                a correlation rho in [0,1]")
  in
  let edits_arg =
    Arg.(
      value & opt int 0
      & info [ "edits" ] ~docv:"N"
          ~doc:"Apply N random single-leaf edits through the incremental \
                engine and report edits/sec against full re-propagation")
  in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:"Also propagate level-parallel over N domains and verify the \
                result is bit-identical")
  in
  let run file generate legs fanout depth shared seed dep_s edits domains =
    let module G = Casekit.Graph in
    let dep =
      match dep_s with
      | "independent" -> Ok G.Independent
      | "frechet-lower" -> Ok G.Frechet_lower
      | "frechet-upper" -> Ok G.Frechet_upper
      | s -> (
        match float_of_string_opt s with
        | Some rho when rho >= 0.0 && rho <= 1.0 -> Ok (G.Correlated rho)
        | _ ->
          Error
            (Printf.sprintf
               "--dependence: expected independent, frechet-lower, \
                frechet-upper, or a rho in [0,1], got %s"
               s))
    in
    let graph =
      match (file, generate) with
      | Some _, true -> Error "give FILE or --generate, not both"
      | None, false -> Error "no input: give a case FILE or --generate"
      | None, true -> (
        try Ok (Casekit.Generate.case ~seed ~legs ~fanout ~depth ~shared ())
        with Invalid_argument msg -> Error msg)
      | Some path, false -> (
        let text =
          let ic = open_in path in
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          s
        in
        match Casekit.Case_format.graph text with
        | exception Casekit.Case_format.Parse_error e ->
          Error (Printf.sprintf "%s:%d: %s" path e.line e.message)
        | g -> Ok g)
    in
    match (dep, graph) with
    | Error msg, _ | _, Error msg -> `Error (false, msg)
    | Ok dep, Ok g ->
      let n = G.size g in
      Printf.printf "Graph: %d nodes, %d edges, %d levels%s\n" n
        (G.edge_count g) (G.levels g)
        (if G.is_tree g then "" else
           Printf.sprintf " (DAG, max overlap %.3f)" (G.max_overlap g));
      let t0 = Unix.gettimeofday () in
      let root_value = G.propagate dep g in
      let t1 = Unix.gettimeofday () in
      let full_seconds = t1 -. t0 in
      Printf.printf "Root confidence: %.6f\n" root_value;
      let lo = G.propagate G.Frechet_lower g in
      let hi = G.propagate G.Frechet_upper g in
      Printf.printf "Under any dependence: [%.6f, %.6f]\n" lo hi;
      ignore (G.propagate dep g);
      if full_seconds > 0.0 then
        Printf.printf "Full propagation: %.3f ms (%.3g nodes/sec)\n"
          (1e3 *. full_seconds)
          (float_of_int n /. full_seconds);
      if domains > 1 then begin
        let par =
          Numerics.Parallel.with_pool ~num_domains:domains (fun pool ->
              G.propagate_par ~pool ~chunks:64 dep g)
        in
        Printf.printf "Parallel (%d domains): %.6f (%s)\n" domains par
          (if Int64.bits_of_float par = Int64.bits_of_float root_value then
             "bit-identical"
           else "MISMATCH")
      end;
      if edits > 0 then begin
        let leaves = G.evidence_indices g in
        let rng = Numerics.Rng.create (seed + 1) in
        let t0 = Unix.gettimeofday () in
        let last = ref root_value in
        for _ = 1 to edits do
          let i = leaves.(Numerics.Rng.int rng (Array.length leaves)) in
          G.set_evidence g i (Numerics.Rng.uniform rng 0.5 0.999);
          last := G.refresh dep g
        done;
        let t1 = Unix.gettimeofday () in
        let per_edit = (t1 -. t0) /. float_of_int edits in
        let full = G.propagate dep g in
        Printf.printf "Incremental: %d edits, %.3g edits/sec%s (%s)\n" edits
          (if per_edit > 0.0 then 1.0 /. per_edit else infinity)
          (if full_seconds > 0.0 && per_edit > 0.0 then
             Printf.sprintf ", %.0fx vs full re-propagation"
               (full_seconds /. per_edit)
           else "")
          (if Int64.bits_of_float !last = Int64.bits_of_float full then
             "bit-identical to full"
           else "MISMATCH vs full");
        Printf.printf "Root after edits: %.6f\n" full
      end;
      `Ok ()
  in
  let info =
    cmd_info "propagate"
      ~doc:"Propagate confidence through a case graph at scale"
      ~man:
        [ `S Manpage.s_description;
          `P
            "Bridges the case into the flat CSR graph representation and \
             runs the one-pass propagation kernel (bit-identical to the \
             tree evaluator on trees).  With $(b,--generate) a synthetic \
             case is built instead — $(b,--legs) 9 $(b,--fanout) 10 \
             $(b,--depth) 5 is exactly one million nodes.  $(b,--shared) \
             makes legs reuse first-leg evidence: the case becomes a DAG \
             and, under a correlated dependence model, each affected \
             $(b,any) goal is combined at no less than its shared-evidence \
             overlap fraction.";
          `P
            "$(b,--edits) N exercises the incremental engine: random \
             single-leaf edits re-propagate only the dirty ancestor cone \
             and are checked bit-identical to a full re-propagation." ]
      ()
  in
  Cmd.v info
    Term.(
      ret
        (const run $ file_arg $ generate_arg $ legs_arg $ fanout_arg
       $ depth_arg $ shared_arg $ seed_arg $ dependence_arg $ edits_arg
       $ domains_arg))

(* --- check ------------------------------------------------------------------- *)

let check_cmd =
  let files_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:"Case ($(b,.case)) or belief ($(b,.belief)) files; other \
                extensions are classified by content")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Exit 1 when warnings are present (errors \
                                always exit 2)")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Machine-readable report on stdout")
  in
  let codes_arg =
    Arg.(
      value & flag
      & info [ "codes" ] ~doc:"Print the diagnostic-code table and exit")
  in
  let run files strict json codes =
    if codes then begin
      print_string (Analysis.Check.codes_table ());
      `Ok ()
    end
    else if files = [] then
      `Error (true, "no input files (or use --codes for the rule table)")
    else begin
      let module D = Analysis.Diagnostic in
      let reports =
        List.map (fun f -> (f, D.sort (Analysis.Check.check_file f))) files
      in
      let all = List.concat_map snd reports in
      if json then print_endline (D.json_of_report reports)
      else begin
        List.iter
          (fun (_, diags) ->
            List.iter (fun d -> print_endline (D.to_string d)) diags)
          reports;
        Printf.printf "%d file%s checked: %d error%s, %d warning%s, %d info%s\n"
          (List.length files)
          (if List.length files = 1 then "" else "s")
          (D.errors all)
          (if D.errors all = 1 then "" else "s")
          (D.warnings all)
          (if D.warnings all = 1 then "" else "s")
          (D.infos all)
          (if D.infos all = 1 then "" else "s")
      end;
      (* 0 clean / 1 warnings under --strict / 2 errors: the CI contract. *)
      let code = D.exit_code ~strict all in
      if code <> 0 then exit code;
      `Ok ()
    end
  in
  let info =
    cmd_info "check"
      ~doc:"Statically check case and belief files before trusting them"
      ~man:
        [ `S Manpage.s_description;
          `P
            "Runs the analysis rule sets over each file without evaluating \
             anything: duplicate or dangling ids, out-of-range confidences, \
             vacuous goals, broken mixture weights, shared evidence between \
             the legs of an $(b,any) goal, and the paper's band-migration \
             trap (a lognormal judgement whose mean sits in a worse SIL \
             band than its mode, log10(mean/mode) = 0.651 sigma^2).";
          `P
            "Exit status: 0 when clean (infos allowed), 1 when warnings \
             are present and $(b,--strict) is given, 2 when any error is \
             present." ]
      ()
  in
  Cmd.v info
    Term.(ret (const run $ files_arg $ strict_arg $ json_arg $ codes_arg))

(* --- audit ------------------------------------------------------------------- *)

let audit_cmd =
  let files_arg =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:"Case files to audit (omit with $(b,--generate))")
  in
  let generate_arg =
    Arg.(
      value & flag
      & info [ "generate" ]
          ~doc:"Audit a synthetic case from the generator instead of FILE")
  in
  let legs_arg =
    Arg.(value & opt int 3 & info [ "legs" ] ~docv:"N" ~doc:"Generator: legs")
  in
  let fanout_arg =
    Arg.(
      value & opt int 4
      & info [ "fanout" ] ~docv:"N" ~doc:"Generator: children per goal")
  in
  let depth_arg =
    Arg.(
      value & opt int 3
      & info [ "depth" ] ~docv:"N" ~doc:"Generator: goal levels per leg")
  in
  let shared_arg =
    Arg.(
      value & opt float 0.0
      & info [ "shared" ] ~docv:"P"
          ~doc:"Generator: probability a later-leg leaf reuses first-leg \
                evidence")
  in
  let seed_arg =
    Arg.(
      value & opt int 61508 & info [ "seed" ] ~docv:"N" ~doc:"Generator: seed")
  in
  let target_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "target" ] ~docv:"P"
          ~doc:"Required root confidence in (0,1]; enables the \
                attainability rules C013/C015")
  in
  let dependence_arg =
    Arg.(
      value
      & opt string "independent"
      & info [ "dependence" ] ~docv:"MODEL"
          ~doc:"$(b,independent), $(b,frechet-lower), $(b,frechet-upper), or \
                a correlation rho in [0,1]")
  in
  let belief_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "belief" ] ~docv:"FILE"
          ~doc:"Belief file whose 95% credible interval bounds every leaf's \
                attainable confidence (default: the vacuous bounds [0,1])")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Exit 1 when warnings are present (errors \
                                always exit 2)")
  in
  let json_arg =
    Arg.(
      value & flag & info [ "json" ] ~doc:"Machine-readable report on stdout")
  in
  let max_per_code_arg =
    Arg.(
      value & opt int 20
      & info [ "max-per-code" ] ~docv:"N"
          ~doc:"Report at most N findings per diagnostic code; the rest are \
                counted in one info summary")
  in
  let run files generate legs fanout depth shared seed target dep_s belief
      strict json max_per_code =
    let module G = Casekit.Graph in
    let module D = Analysis.Diagnostic in
    let dep =
      match dep_s with
      | "independent" -> Ok G.Independent
      | "frechet-lower" -> Ok G.Frechet_lower
      | "frechet-upper" -> Ok G.Frechet_upper
      | s -> (
        match float_of_string_opt s with
        | Some rho when rho >= 0.0 && rho <= 1.0 -> Ok (G.Correlated rho)
        | _ ->
          Error
            (Printf.sprintf
               "--dependence: expected independent, frechet-lower, \
                frechet-upper, or a rho in [0,1], got %s"
               s))
    in
    let leaf_bounds =
      match belief with
      | None -> Ok None
      | Some path -> (
        match Elicit.Belief_format.parse_file path with
        | exception Elicit.Belief_format.Parse_error e ->
          Error (Printf.sprintf "%s:%d: %s" path e.line e.message)
        | exception Sys_error msg -> Error msg
        | exception Invalid_argument msg -> Error msg
        | mixture ->
          (* A belief file is a distribution over confidence: its central
             95% credible interval, clamped into [0,1], bounds what any
             single leaf can attain. *)
          let l, h = Dist.Mixture.credible_interval mixture ~level:0.95 in
          let l = Float.max 0.0 (Float.min 1.0 l) in
          let h = Float.max l (Float.min 1.0 h) in
          Ok (Some (fun _ -> (l, h))))
    in
    match (dep, leaf_bounds) with
    | Error msg, _ | _, Error msg -> `Error (false, msg)
    | Ok dependence, Ok leaf_bounds -> (
      let options =
        {
          Analysis.Audit.default_options with
          target;
          dependence;
          leaf_bounds;
          max_per_code;
        }
      in
      let print_report reports =
        let all = List.concat_map snd reports in
        if json then print_endline (D.json_of_report reports)
        else begin
          List.iter
            (fun (_, diags) ->
              List.iter (fun d -> print_endline (D.to_string d)) diags)
            reports;
          Printf.printf "%d error%s, %d warning%s, %d info%s\n" (D.errors all)
            (if D.errors all = 1 then "" else "s")
            (D.warnings all)
            (if D.warnings all = 1 then "" else "s")
            (D.infos all)
            (if D.infos all = 1 then "" else "s")
        end;
        let code = D.exit_code ~strict all in
        if code <> 0 then exit code;
        `Ok ()
      in
      match (files, generate) with
      | _ :: _, true -> `Error (false, "give FILE or --generate, not both")
      | [], false -> `Error (true, "no input: give a case FILE or --generate")
      | [], true -> (
        match Casekit.Generate.case ~seed ~legs ~fanout ~depth ~shared () with
        | exception Invalid_argument msg -> `Error (false, msg)
        | g ->
          let n = G.size g in
          let t0 = Unix.gettimeofday () in
          let diags = Analysis.Audit.graph ~options g in
          let t1 = Unix.gettimeofday () in
          if not json then begin
            Printf.printf "Graph: %d nodes, %d edges, %d levels%s\n" n
              (G.edge_count g) (G.levels g)
              (if G.is_tree g then ""
               else Printf.sprintf " (DAG, max overlap %.3f)" (G.max_overlap g));
            if t1 -. t0 > 0.0 then
              Printf.printf "Audit: %.3f ms (%.3g nodes/sec)\n"
                (1e3 *. (t1 -. t0))
                (float_of_int n /. (t1 -. t0))
          end;
          print_report [ ("<generated>", D.with_file "<generated>" diags) ])
      | paths, false ->
        let read path =
          let ic = open_in path in
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          s
        in
        let reports =
          List.map
            (fun path ->
              match read path with
              | exception Sys_error msg ->
                ( path,
                  [ D.make ~file:path ~code:"F000" ~severity:D.Error ~line:0
                      msg ] )
              | text ->
                (path, Analysis.Audit.case ~file:path ~options text))
            paths
        in
        print_report reports)
  in
  let info =
    cmd_info "audit"
      ~doc:"Semantically audit a case: attainable bounds, vacuous legs, \
            single points of failure"
      ~man:
        [ `S Manpage.s_description;
          `P
            "Runs the semantic static analyses on top of $(b,check)'s \
             structural rules: an interval abstract interpretation \
             propagates each node's attainable confidence bounds in one \
             topological sweep (C013 unattainable top claim, C014 vacuous \
             leg, C015 over-tight assumptions), and a dominator pass finds \
             evidence whose refutation alone defeats the root (C016 single \
             point of failure).";
          `P
            "With $(b,--belief) the leaf bounds come from the belief's 95% \
             credible interval instead of the vacuous [0,1]; with \
             $(b,--target) the attainability rules compare the root's \
             best case against the required confidence.  All passes are \
             linear in the CSR graph, so $(b,--generate) scales to \
             million-node cases.";
          `P
            "Exit status: 0 when clean (infos allowed), 1 when warnings \
             are present and $(b,--strict) is given, 2 when any error is \
             present." ]
      ()
  in
  Cmd.v info
    Term.(
      ret
        (const run $ files_arg $ generate_arg $ legs_arg $ fanout_arg
       $ depth_arg $ shared_arg $ seed_arg $ target_arg $ dependence_arg
       $ belief_arg $ strict_arg $ json_arg $ max_per_code_arg))

(* --- risk -------------------------------------------------------------------- *)

let risk_cmd =
  let freq_arg =
    Arg.(
      value
      & opt float 0.1
      & info [ "initiating-frequency" ] ~docv:"F"
          ~doc:"Initiating events per year")
  in
  let layers_arg =
    Arg.(
      value
      & opt_all (t2 ~sep:':' string float) []
      & info [ "layer" ] ~docv:"NAME:PFD"
          ~doc:"Certain protection layer (repeatable)")
  in
  let belief_layers_arg =
    Arg.(
      value
      & opt_all (t3 ~sep:':' string float float) []
      & info [ "belief-layer" ] ~docv:"NAME:MODE:SIGMA"
          ~doc:"Layer with a lognormal pfd belief (repeatable)")
  in
  let target_arg =
    Arg.(
      value
      & opt float 1e-5
      & info [ "target" ] ~docv:"F" ~doc:"Target mitigated frequency per year")
  in
  let run freq certain beliefs target =
    try
      let layers =
        List.map (fun (name, pfd) -> Risk.Lopa.layer_certain ~name ~pfd) certain
        @ List.map
            (fun (name, mode, sigma) ->
              Risk.Lopa.layer ~name
                ~pfd:
                  (Dist.Mixture.of_dist
                     (Dist.Lognormal.of_mode_sigma ~mode ~sigma)))
            beliefs
      in
      let s =
        Risk.Lopa.scenario ~description:"cli scenario"
          ~initiating_frequency:freq layers
      in
      Printf.printf "Mean mitigated frequency: %.4g /yr\n"
        (Risk.Lopa.mean_frequency s);
      Printf.printf "P(frequency <= %.4g) = %.4f\n" target
        (Risk.Lopa.confidence_below s ~target);
      let belief = Risk.Lopa.frequency_belief s in
      print_endline "Against the UK HSE public-risk criterion:";
      List.iter
        (fun (c, p) ->
          Printf.printf "  %-22s %.4f\n"
            (Risk.Criteria.classification_to_string c)
            p)
        (Risk.Criteria.confidence_profile Risk.Criteria.uk_hse_public belief);
      (match Risk.Lopa.allocate_sil s ~target with
      | `Band b ->
        Printf.printf "Last layer sized at target %.4g: %s\n" target
          (Sil.Band.to_string b)
      | `Beyond_sil4 ->
        Printf.printf "Last layer would need better than SIL4 - restructure\n"
      | `No_sil_needed -> Printf.printf "No SIL-rated layer needed\n"
      | `Impossible -> Printf.printf "Target unreachable\n");
      `Ok ()
    with Invalid_argument msg -> `Error (false, msg)
  in
  let info =
    cmd_info "risk" ~doc:"Layer-of-protection risk assessment with confidence" ()
  in
  Cmd.v info
    Term.(ret (const run $ freq_arg $ layers_arg $ belief_layers_arg $ target_arg))

(* --- serve ------------------------------------------------------------------- *)

let serve_cmd =
  let unix_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "unix" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket at PATH instead of serving \
                stdin/stdout")
  in
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT" ~doc:"Listen on TCP $(docv)")
  in
  let host_arg =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Bind address for $(b,--port)")
  in
  let domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:"Domain-pool size for concurrent request groups (default: \
                $(b,CONFCASE_DOMAINS) or the machine's core count)")
  in
  let queue_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "queue" ] ~docv:"N"
          ~doc:"Pending-request cap in socket mode; beyond it requests are \
                shed with a retry_after error (default: \
                $(b,CONFCASE_SERVE_QUEUE) or 1024)")
  in
  let batch_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "batch" ] ~docv:"N"
          ~doc:"Max requests drained per scheduling cycle (default: \
                $(b,CONFCASE_SERVE_BATCH) or 64)")
  in
  let retry_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "retry-after-ms" ] ~docv:"MS"
          ~doc:"Advisory client delay carried in shed responses (default: \
                $(b,CONFCASE_SERVE_RETRY_MS) or 50)")
  in
  let run unix port host domains queue batch retry =
    let bad = List.exists (fun v -> match v with Some n -> n <= 0 | None -> false) in
    if bad [ domains; queue; batch; retry ] then
      `Error (false, "--domains, --queue, --batch, --retry-after-ms must be positive")
    else
      match (unix, port) with
      | Some _, Some _ -> `Error (false, "give --unix or --port, not both")
      | _ ->
        let pool = Numerics.Parallel.create ?num_domains:domains () in
        let base = Serve.Server.config ~pool () in
        let config =
          {
            base with
            Serve.Server.queue_bound =
              (match queue with Some n -> n | None -> base.Serve.Server.queue_bound);
            batch = (match batch with Some n -> n | None -> base.Serve.Server.batch);
            retry_after_ms =
              (match retry with
              | Some n -> n
              | None -> base.Serve.Server.retry_after_ms);
          }
        in
        let eng = Serve.Engine.create () in
        (match (unix, port) with
        | Some path, None ->
          Serve.Server.run_socket config eng (Serve.Server.Unix_path path)
        | None, Some p ->
          Serve.Server.run_socket config eng (Serve.Server.Tcp (host, p))
        | None, None ->
          Serve.Server.run_pipe config eng ~input:Unix.stdin ~output:Unix.stdout
        | Some _, Some _ -> assert false);
        Numerics.Parallel.shutdown pool;
        `Ok ()
  in
  let info =
    cmd_info "serve"
      ~doc:"Hot evaluation daemon: parse once, serve many over NDJSON"
      ~man:
        [ `S Manpage.s_description;
          `P
            "Holds parsed cases, beliefs, and flat CSR graphs hot in memory \
             and answers $(b,evaluate) / $(b,check) / $(b,audit) / \
             $(b,quantile) / $(b,edit) requests, one JSON object per line, \
             over stdin/stdout (default), a Unix-domain socket \
             ($(b,--unix)), or TCP ($(b,--port)).";
          `P
            "Evaluation results are memoised by content address: the key is \
             the queried node's structural hash (leaf-up, over kind tags, \
             confidences, assumption products, and child hashes) combined \
             with the dependence model, so identical sub-cases across \
             sessions and edits share entries and a cache hit returns \
             bit-identical float bits to a cold evaluation.  $(b,edit) \
             requests route through the incremental engine and recompute \
             only the dirty ancestor cone.";
          `P
            "Request groups touching distinct cases run concurrently over \
             the shared domain pool; the socket modes keep one bounded \
             pending queue and shed excess load with an \
             $(i,overloaded)/$(i,retry_after_ms) error rather than grow \
             without bound.  A $(b,shutdown) request (or end of input in \
             pipe mode) exits cleanly." ]
      ()
  in
  Cmd.v info
    Term.(
      ret
        (const run $ unix_arg $ port_arg $ host_arg $ domains_arg $ queue_arg
       $ batch_arg $ retry_arg))

(* --- stream ------------------------------------------------------------------ *)

let env_pos_int name fallback =
  match Sys.getenv_opt name with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | _ -> fallback)
  | None -> fallback

let env_pos_float name fallback =
  match Sys.getenv_opt name with
  | Some s -> (
    match float_of_string_opt (String.trim s) with
    | Some x when x > 0.0 -> x
    | _ -> fallback)
  | None -> fallback

let stream_cmd =
  let beta_arg =
    Arg.(
      value
      & opt (some (t2 ~sep:':' float float)) None
      & info [ "beta" ] ~docv:"A:B"
          ~doc:"Conjugate Beta(A, B) prior over the pfd (demand mode)")
  in
  let gamma_arg =
    Arg.(
      value
      & opt (some (t2 ~sep:':' float float)) None
      & info [ "gamma" ] ~docv:"SHAPE:RATE"
          ~doc:"Conjugate Gamma prior over the failure rate (continuous mode)")
  in
  let belief_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "belief-file" ] ~docv:"FILE"
          ~doc:"Arbitrary mixture prior from a belief file (grid reweighting)")
  in
  let continuous_arg =
    Arg.(
      value & flag
      & info [ "continuous" ]
          ~doc:"With $(b,--belief-file): treat it as a rate belief \
                (operating-hours evidence) instead of a pfd belief")
  in
  let events_arg =
    Arg.(
      value
      & opt int 1_000_000
      & info [ "events" ] ~docv:"N" ~doc:"Synthetic evidence events to ingest")
  in
  let seed_arg =
    Arg.(value & opt int 61508 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed")
  in
  let truth_arg =
    Arg.(
      value
      & opt float 3e-3
      & info [ "truth" ] ~docv:"X"
          ~doc:"Ground truth generating the events: per-demand failure \
                probability, or per-hour failure rate in continuous mode")
  in
  let batch_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "batch" ] ~docv:"N"
          ~doc:"Events per ingested column batch (default: \
                $(b,CONFCASE_STREAM_BATCH) or 65536)")
  in
  let bound_arg =
    Arg.(
      value
      & opt float 1e-2
      & info [ "bound" ] ~docv:"B" ~doc:"Confidence bound P(measure <= B)")
  in
  let chunks_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "chunks" ] ~docv:"N"
          ~doc:"Parallel ingestion chunk count (default: \
                $(b,CONFCASE_CHUNKS) or 8 x domains)")
  in
  let snapshot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:"Save the accumulator state to $(docv) at the end")
  in
  let resume_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:"Restore the accumulator from a snapshot before ingesting")
  in
  let population_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "population" ] ~docv:"N"
          ~doc:"Instead of ingesting: run the population-scale Delphi with \
                $(docv) synthetic assessors and print per-phase quantile \
                bands")
  in
  let run beta gamma belief_file continuous events seed truth batch bound
      chunks snapshot resume population =
    try
      match population with
      | Some n ->
        let compression =
          env_pos_float "CONFCASE_STREAM_COMPRESSION" 200.0
        in
        let config = { Elicit.Delphi.default_config with seed } in
        let result =
          Numerics.Parallel.with_pool (fun pool ->
              Elicit.Population.run ~pool ?chunks ~compression config ~n)
        in
        print_string (Elicit.Population.summary_table result);
        Printf.printf
          "\n%d assessors (%d doubters, %d believers), %d chunks\n"
          result.Elicit.Population.n result.Elicit.Population.n_doubters
          result.Elicit.Population.n_believers
          result.Elicit.Population.chunks;
        `Ok ()
      | None ->
        if events < 0 then raise (Invalid_argument "stream: events < 0");
        let module S = Experience.Stream in
        let prior_belief =
          match belief_file with
          | None -> None
          | Some path -> Some (Elicit.Belief_format.parse_file path)
        in
        let fresh () =
          match (beta, gamma, prior_belief) with
          | Some (a, b), None, None -> S.demand_beta ~a ~b
          | None, Some (shape, rate), None -> S.rate_gamma ~shape ~rate
          | None, None, Some prior ->
            if continuous then S.rate_of_belief prior
            else S.demand_of_belief prior
          | None, None, None -> S.demand_beta ~a:1.0 ~b:1.0
          | _ ->
            raise
              (Invalid_argument
                 "give at most one of --beta, --gamma, --belief-file")
        in
        let acc =
          match resume with
          | None -> fresh ()
          | Some path ->
            S.of_columns ?prior:prior_belief (Numerics.Columns.load path)
        in
        let batch = match batch with
          | Some b ->
            if b < 1 then raise (Invalid_argument "stream: batch < 1");
            b
          | None -> env_pos_int "CONFCASE_STREAM_BATCH" 65536
        in
        let rng = Numerics.Rng.create seed in
        let demand = S.mode acc = S.Demand in
        Printf.printf "%12s %12s %10s %14s %14s\n" "events"
          (if demand then "demands" else "hours")
          "failures" "mean" "confidence";
        let report () =
          Printf.printf "%12d %12s %10d %14.6g %14.6g\n" (S.events acc)
            (if demand then string_of_int (S.demands acc)
             else Printf.sprintf "%.6g" (S.hours acc))
            (S.failures acc) (S.mean acc)
            (S.confidence acc ~bound)
        in
        report ();
        Numerics.Parallel.with_pool (fun pool ->
            let remaining = ref events in
            while !remaining > 0 do
              let m = min batch !remaining in
              remaining := !remaining - m;
              let a = Numerics.Columns.create ~capacity:m ()
              and f = Numerics.Columns.create ~capacity:m () in
              for _ = 1 to m do
                (* One demand (or hour) per event; failures are drawn
                   from the ground truth. *)
                Numerics.Columns.push a 1.0;
                Numerics.Columns.push f
                  (if Numerics.Rng.bernoulli rng (min 1.0 truth) then 1.0
                   else 0.0)
              done;
              if demand then
                S.ingest_demands_par ~pool ?chunks acc ~demands:a ~failures:f
              else S.ingest_hours_par ~pool ?chunks acc ~hours:a ~failures:f;
              report ()
            done);
        (match snapshot with
        | None -> ()
        | Some path ->
          Numerics.Columns.save path (S.to_columns acc);
          Printf.eprintf "# snapshot written to %s\n" path);
        `Ok ()
    with
    | Invalid_argument msg | Failure msg | Sys_error msg -> `Error (false, msg)
    | Elicit.Belief_format.Parse_error e ->
      `Error (false, Printf.sprintf "%d:%d: %s" e.line e.col e.message)
  in
  let info =
    cmd_info "stream"
      ~doc:"Streaming evidence: online confidence updating at traffic scale"
      ~man:
        [ `S Manpage.s_description;
          `P
            "Ingests synthetic evidence events — failure-free demands or \
             operating hours, with failures drawn from $(b,--truth) — in \
             column batches through the mergeable streaming accumulator \
             ($(b,Experience.Stream)), printing the posterior mean and \
             P(measure <= $(b,--bound)) at every batch boundary.  The \
             posterior after any prefix is bit-identical to the batch \
             computation on the pooled evidence, however the stream was \
             batched or split across domains.";
          `P
            "$(b,--snapshot)/$(b,--resume) round-trip the accumulator \
             through the columnar snapshot format (mixture priors are not \
             serialised: pass the same $(b,--belief-file) when resuming).  \
             $(b,--population) switches to the population-scale Delphi \
             simulation: millions of synthetic assessors, per-phase pooled \
             confidence and t-digest quantile bands." ]
      ()
  in
  Cmd.v info
    Term.(
      ret
        (const run $ beta_arg $ gamma_arg $ belief_arg $ continuous_arg
       $ events_arg $ seed_arg $ truth_arg $ batch_arg $ bound_arg
       $ chunks_arg $ snapshot_arg $ resume_arg $ population_arg))

let main =
  let doc =
    "quantified confidence for dependability cases (Bloomfield, Littlewood, \
     Wright, DSN 2007)"
  in
  let info = Cmd.info "confcase" ~version:Version.version ~doc in
  Cmd.group info
    [ figures_cmd; judge_cmd; conservative_cmd; delphi_cmd; experience_cmd;
      elicit_cmd; case_cmd; propagate_cmd; check_cmd; audit_cmd; risk_cmd;
      serve_cmd; stream_cmd ]

let () = exit (Cmd.eval main)
