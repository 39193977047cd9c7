(* confbench's own rules, and one small run of every workload through the
   library against the confcase binary built beside it. *)

open E2e
module P = Serve.Protocol

let close ?(eps = 1e-9) msg want got = Alcotest.(check (float eps)) msg want got

(* --- the percentile rule ---------------------------------------------------- *)

let test_percentile () =
  Alcotest.(check int) "p99 of 100" 99 (Stats.rank ~n:100 0.99);
  Alcotest.(check int) "p50 of 10" 5 (Stats.rank ~n:10 0.5);
  Alcotest.(check int) "p50 of 1" 1 (Stats.rank ~n:1 0.5);
  let xs = Array.init 10 (fun i -> float_of_int (10 - i)) in
  close "median of 1..10 (nearest rank)" 5.0 (Stats.median xs);
  close "p90 of 1..10" 9.0 (Stats.percentile (Stats.sort xs) 0.9);
  Alcotest.(check (option (float 0.0))) "99 samples: no tail" None (Stats.tail_level 99);
  Alcotest.(check (option (float 0.0))) "100 samples: p90" (Some 0.9) (Stats.tail_level 100);
  Alcotest.(check (option (float 0.0))) "999 samples: still p90" (Some 0.9) (Stats.tail_level 999);
  Alcotest.(check (option (float 0.0))) "1000 samples: p99" (Some 0.99) (Stats.tail_level 1000);
  let s = Stats.summarize (Array.init 1000 float_of_int) in
  Alcotest.(check int) "n" 1000 s.n;
  close "p50" 499.0 s.p50;
  Alcotest.(check (option (pair (float 0.0) (float 0.0)))) "tail" (Some (0.99, 989.0)) s.tail

let test_failures_infinite () =
  let xs = [| 10.0; infinity; 20.0; infinity |] in
  close "half failed: p50 is the last success" 20.0 (Stats.median xs);
  Alcotest.(check bool) "most failed: p50 is infinite" true
    (Stats.median [| 10.0; infinity; infinity |] = infinity);
  close "failures miss any limit" 0.5 (Stats.within xs ~limit:1e300);
  let o =
    {
      Ctx.attempted = 3;
      failed = 0;
      correct = true;
      metrics = List.map (fun (m : Metrics.e2e) -> (m.name, if m.name = "p50_ms" then infinity else 1.0)) Metrics.end_to_end;
      env = [];
      spans = [];
    }
  in
  Alcotest.(check bool) "an infinite metric makes the run incorrect" false (Report.correct ~trace:false o);
  let value =
    Option.bind (P.member "metrics" (P.parse (Report.result_line ~trace:false o))) (P.member "p50_ms")
    |> Fun.flip Option.bind (P.member "value")
    |> Fun.flip Option.bind P.get_num
  in
  Alcotest.(check (option (float 0.0))) "and prints as -1" (Some (-1.0)) value

(* --- max_rps ------------------------------------------------------------------- *)

let step rate good shed = { Stats.rate; good; shed }

let test_max_rps () =
  let v, knee = Stats.max_rps [ step 1000. 1.0 0; step 2000. 1.0 0; step 4000. 0.5 0 ] in
  Alcotest.(check bool) "inside" true (knee = Stats.Inside);
  (* The share falls from 1.0 to 0.5; it crosses 0.99 at 1/50 of the
     log-distance from 2000 to 4000. *)
  close ~eps:1e-6 "log-rate interpolation" (2000.0 *. (2.0 ** 0.02)) v;
  let v, knee = Stats.max_rps [ step 1000. 0.9 0; step 2000. 0.5 0 ] in
  Alcotest.(check bool) "never met" true (knee = Stats.Below_ladder);
  close "never met: lowest rate" 1000.0 v;
  let v, knee = Stats.max_rps [ step 1000. 1.0 0; step 2000. 0.995 0 ] in
  Alcotest.(check bool) "always met" true (knee = Stats.Above_ladder);
  close "always met: top rate" 2000.0 v;
  let v, _ = Stats.max_rps [ step 1000. 1.0 0; step 2000. 0.5 0; step 4000. 1.0 0; step 8000. 0.0 0 ] in
  Alcotest.(check bool) "highest passing step counts" true (v > 4000.0 && v < 8000.0);
  let _, knee = Stats.max_rps [ step 1000. 1.0 0; step 2000. 1.0 3 ] in
  Alcotest.(check bool) "a shed fails the step" true (knee = Stats.Inside)

(* --- spans ----------------------------------------------------------------------- *)

let span id parent start end_ =
  { Trace.trace = 1; span = id; parent; name = string_of_int id; start_ns = Int64.of_int start; end_ns = Int64.of_int end_ }

let test_self_time () =
  (* 1 [0,100] holds 2 [10,30] (which holds 3 [15,20]) and 4 [40,70]. *)
  let spans = [ span 3 2 15 20; span 2 1 10 30; span 4 1 40 70; span 1 0 0 100 ] in
  let self = List.map (fun ((s : Trace.span), t) -> (s.span, t)) (Trace.self_ns spans) in
  List.iter
    (fun (id, want) -> close (Printf.sprintf "span %d" id) want (List.assoc id self))
    [ (1, 50.0); (2, 15.0); (3, 5.0); (4, 30.0) ];
  close "self times sum to the root's duration" 100.0 (List.fold_left (fun a (_, t) -> a +. t) 0.0 self)

let test_with_span () =
  let tr = Trace.create () in
  (try
     Trace.with_span tr "outer" (fun () ->
         Trace.with_span tr "inner" (fun () -> ());
         Trace.with_span tr "raises" (fun () -> failwith "boom"))
   with Failure _ -> ());
  let by_name n = List.find (fun (s : Trace.span) -> s.name = n) (Trace.spans tr) in
  let outer = by_name "outer" in
  Alcotest.(check int) "root has no parent" 0 outer.parent;
  Alcotest.(check int) "inner's parent" outer.span (by_name "inner").parent;
  Alcotest.(check int) "a raising span is still recorded" outer.span (by_name "raises").parent;
  Alcotest.(check int) "off records nothing" 0
    (let off = Trace.off () in
     Trace.with_span off "x" (fun () -> ());
     List.length (Trace.spans off))

(* --- the registry and BENCHMARK.json ------------------------------------------------ *)

let test_benchmark_json () =
  let j = P.parse (In_channel.with_open_bin "../../../BENCHMARK.json" In_channel.input_all) in
  let arr k = match P.member k j with Some (P.Arr l) -> l | _ -> Alcotest.fail k in
  let str k v = Option.get (P.get_string (Option.get (P.member k v))) in
  Alcotest.(check (list string)) "workloads" (List.map fst Workloads.all) (List.map (str "name") (arr "workloads"));
  Alcotest.(check (list (triple string string string))) "end_to_end"
    (List.map (fun (m : Metrics.e2e) -> (m.name, m.unit_, m.better)) Metrics.end_to_end)
    (List.map (fun v -> (str "name" v, str "unit" v, str "better" v)) (arr "end_to_end"));
  Alcotest.(check (list (float 0.0))) "bounds"
    (List.map (fun (m : Metrics.e2e) -> m.bound) Metrics.end_to_end)
    (List.map (fun v -> Option.get (P.get_num (Option.get (P.member "bound" v)))) (arr "end_to_end"));
  Alcotest.(check (list (triple string string string))) "per_layer" Metrics.per_layer
    (List.map (fun v -> (str "name" v, str "unit" v, str "better" v)) (arr "per_layer"))

(* --- a depth-2 run of each workload ----------------------------------------------------- *)

let ctx =
  let dir = "confbench-test" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  { Ctx.confcase = "../../../bin/confcase.exe"; kernel = "../speed_kernel.exe"; seed = 7; seconds = 1.0; depth = 2; setups = 1; dir; nproc = 2 }

(* Machine-speed scaling, with the kernel built beside confbench. *)
let test_speed () =
  let m = Speed.meter ctx.kernel in
  let (), k = Speed.measure m (fun () -> ()) in
  let s = Speed.samples m in
  Alcotest.(check int) "one sample before, one after" 2 (Array.length s);
  close ~eps:1e-12 "reference over the mean of the bracketing samples"
    (Speed.reference_s /. (0.5 *. (s.(0) +. s.(1))))
    k

let result_keys line =
  match P.parse line with P.Obj kvs -> List.map fst kvs | _ -> []

let run_workload name ~trace () =
  let o = (List.assoc name Workloads.all) ctx ~trace in
  Alcotest.(check bool) "every gate held" true o.correct;
  Alcotest.(check int) "nothing failed" 0 o.failed;
  Alcotest.(check bool) "something was attempted" true (o.attempted > 0);
  let line = Report.result_line ~trace o in
  Alcotest.(check (list string)) "result keys" [ "correct"; "attempted"; "failed"; "metrics" ] (result_keys line);
  if not trace then
    List.iter
      (fun (m : Metrics.e2e) ->
        let v = List.assoc m.name o.metrics in
        (* CPU time comes in 10 ms ticks; a depth-2 run can take less. *)
        let ok = if m.name = "cpu_ms" then v >= 0.0 else v > 0.0 in
        Alcotest.(check bool) (m.name ^ " is positive and finite") true (ok && Float.is_finite v))
      Metrics.end_to_end
  else Alcotest.(check bool) "spans recorded" true (o.spans <> [])

let () =
  Alcotest.run "confbench"
    [
      ( "confbench.stats",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile;
          Alcotest.test_case "failures count as infinite latency" `Quick test_failures_infinite;
          Alcotest.test_case "interpolated max_rps" `Quick test_max_rps;
          Alcotest.test_case "machine-speed scaling" `Quick test_speed;
        ] );
      ( "confbench.trace",
        [
          Alcotest.test_case "self time on nested spans" `Quick test_self_time;
          Alcotest.test_case "span parents and failures" `Quick test_with_span;
        ] );
      ("confbench.registry", [ Alcotest.test_case "BENCHMARK.json matches" `Quick test_benchmark_json ]);
      ( "confbench.workloads",
        [
          Alcotest.test_case "file-assess" `Quick (run_workload "file-assess" ~trace:false);
          Alcotest.test_case "file-assess traced" `Quick (run_workload "file-assess" ~trace:true);
          Alcotest.test_case "serve-read" `Quick (run_workload "serve-read" ~trace:false);
          Alcotest.test_case "serve-write" `Quick (run_workload "serve-write" ~trace:false);
          Alcotest.test_case "serve-write traced" `Quick (run_workload "serve-write" ~trace:true);
          Alcotest.test_case "mc-figures" `Quick (run_workload "mc-figures" ~trace:false);
        ] );
    ]
