(* confbench — end-to-end benchmark of confcase.

     confbench.exe --workload W --seed S --seconds N --trace 0|1

   Runs one workload against the confcase binary built beside this one
   (../../bin/confcase.exe in the build tree), with the calibration
   kernel speed_kernel.exe from this directory, prints an env line and,
   last, one JSON result line.  With --trace 1 the run replays the
   workload in-process through each layer, prints the per-layer metrics
   instead of the end-to-end ones, and writes its spans to
   .bench_out/spans-W-S.ndjson.  Exits 1 when an output gate fails and 2
   on bad arguments. *)

let usage () =
  prerr_endline
    ("usage: confbench.exe --workload "
    ^ String.concat "|" (List.map fst E2e.Workloads.all)
    ^ " --seed N --seconds N --trace 0|1");
  exit 2

let () =
  (* Leave through [exit] on a signal, so the at_exit hook stops and reaps
     every child.  Handlers, unlike ignored signals, do not pass to the
     programs under test. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup; Sys.sigpipe ];
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> parse ((k, v) :: acc) rest
    | _ -> usage ()
  in
  let flags = parse [] args in
  let get k = match List.assoc_opt k flags with Some v -> v | None -> usage () in
  if List.length flags <> 4 then usage ();
  let workload = get "--workload" in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let seed = int "--seed" and seconds = int "--seconds" in
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  let run = match List.assoc_opt workload E2e.Workloads.all with Some r -> r | None -> usage () in
  if seconds < 1 then usage ();
  let confcase =
    Filename.concat
      (Filename.dirname (Filename.dirname (Filename.dirname Sys.executable_name)))
      (Filename.concat "bin" "confcase.exe")
  in
  let kernel = Filename.concat (Filename.dirname Sys.executable_name) "speed_kernel.exe" in
  List.iter
    (fun exe ->
      if not (Sys.file_exists exe) then begin
        prerr_endline ("confbench: no binary at " ^ exe);
        exit 2
      end)
    [ confcase; kernel ];
  let dir = ".bench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let ctx =
    {
      E2e.Ctx.confcase;
      kernel;
      seed;
      seconds = float_of_int seconds;
      depth = 4;
      setups = 5;
      dir;
      nproc = Domain.recommended_domain_count ();
    }
  in
  let o = run ctx ~trace in
  if trace then E2e.Trace.write_ndjson (Printf.sprintf "%s/spans-%s-%d.ndjson" dir workload seed) o.spans;
  print_endline (E2e.Report.env_line ctx ~workload ~trace o.env);
  print_endline (E2e.Report.result_line ~trace o);
  exit (if E2e.Report.correct ~trace o then 0 else 1)
