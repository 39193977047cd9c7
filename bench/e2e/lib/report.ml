(* The two stdout lines a run ends with: the env block, then the result
   object (always the last line). *)

module P = Serve.Protocol

(* The commit the checkout was made from, when it is a git work tree. *)
let git_commit () =
  match Proc.run "git" [ "rev-parse"; "HEAD" ] with
  | r when Proc.exited_ok r -> String.trim r.stdout
  | _ | (exception Unix.Unix_error _) -> "unknown"

let env_line (ctx : Ctx.t) ~workload ~trace extra =
  P.print
    (P.Obj
       [
         ( "env",
           P.Obj
             ([
                ("workload", P.Str workload);
                ("seed", P.Num (float_of_int ctx.seed));
                ("seconds", P.Num ctx.seconds);
                ("trace", P.Bool trace);
                ("nproc", P.Num (float_of_int ctx.nproc));
                ("ocaml_version", P.Str Sys.ocaml_version);
                ("git_commit", P.Str (git_commit ()));
                ("daemon_domains", P.Num (float_of_int ctx.nproc));
                ("default_chunks", P.Num (float_of_int (Numerics.Parallel.default_chunks ())));
                ("ladder_rates", P.Arr (List.map (fun r -> P.Num r) Metrics.ladder_rates));
                ("fixture_depth", P.Num (float_of_int ctx.depth));
              ]
             @ extra) );
       ])

(* A timing as the benchmark reports it: sample count, median, and the
   highest percentile with ten samples beyond it (null when n < 100).  An
   infinite latency (failed requests) prints as null. *)
let summary xs =
  let s = Stats.summarize xs in
  P.Obj
    [
      ("n", P.Num (float_of_int s.n));
      ("p50", P.Num s.p50);
      ( "tail",
        match s.tail with
        | Some (level, v) -> P.Obj [ ("level", P.Num level); ("value", P.Num v) ]
        | None -> P.Null );
    ]

(* The metrics the run prints, in registry order, with their units. *)
let values ~trace (o : Ctx.outcome) =
  let metric name unit_ =
    match List.assoc_opt name o.metrics with
    | Some v -> (name, v, unit_)
    | None when trace -> (name, 0.0, unit_)
    | None -> invalid_arg ("Report.values: no value for " ^ name)
  in
  if trace then List.map (fun (n, u, _) -> metric n u) Metrics.per_layer
  else List.map (fun (m : Metrics.e2e) -> metric m.name m.unit_) Metrics.end_to_end

(* Only failed requests make a value infinite, so a run with one has
   already failed a gate; it counts as incorrect here too. *)
let correct ~trace (o : Ctx.outcome) =
  o.correct && List.for_all (fun (_, v, _) -> Float.is_finite v) (values ~trace o)

(* JSON has no infinity: an infinite value prints as -1. *)
let result_line ~trace (o : Ctx.outcome) =
  let metric (name, v, unit_) =
    (name, P.Obj [ ("value", P.Num (if Float.is_finite v then v else -1.0)); ("unit", P.Str unit_) ])
  in
  P.print
    (P.Obj
       [
         ("correct", P.Bool (correct ~trace o));
         ("attempted", P.Num (float_of_int (max 1 o.attempted)));
         ("failed", P.Num (float_of_int o.failed));
         ("metrics", P.Obj (List.map metric (values ~trace o)));
       ])
