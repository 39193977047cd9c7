open Helpers
module P = Serve.Protocol
module E = Serve.Engine
module G = Casekit.Graph
module Gen = Casekit.Generate

let bits = Int64.bits_of_float
let same_bits a b = Int64.equal (bits a) (bits b)

(* The shipped fixtures live at the repo root; dune may run the suite
   from the test directory or the sandbox root. *)
let fixture path =
  if Sys.file_exists path then path
  else
    let up = Filename.concat ".." path in
    if Sys.file_exists up then up else path

(* ------------------------------------------------------------------ *)
(* Protocol: the hand-rolled NDJSON layer.                            *)

let test_parse_basics () =
  (match P.parse " {\"a\": 1, \"b\": [true, false, null], \"s\": \"x\"} " with
  | P.Obj kvs ->
    check_true "member a" (P.member "a" (P.Obj kvs) = Some (P.Num 1.0));
    check_true "member b"
      (P.member "b" (P.Obj kvs)
      = Some (P.Arr [ P.Bool true; P.Bool false; P.Null ]));
    check_true "member s" (P.member "s" (P.Obj kvs) = Some (P.Str "x"));
    check_true "missing member" (P.member "zz" (P.Obj kvs) = None)
  | _ -> Alcotest.fail "expected an object");
  check_true "nested" (P.parse "[[],{},[{\"k\":[]}]]" <> P.Null);
  check_true "negative exponent" (P.parse "-1.5e-3" = P.Num (-1.5e-3));
  check_true "escapes"
    (P.parse "\"a\\n\\t\\\\\\\"\\/\"" = P.Str "a\n\t\\\"/");
  (* \u escapes decode to UTF-8, including a surrogate pair. *)
  check_true "unicode escapes"
    (P.parse "\"\\u0041\\u00e9\\u20ac\\ud83d\\ude00\""
    = P.Str "A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80")

let test_parse_errors () =
  List.iter
    (fun s ->
      match P.parse s with
      | exception P.Parse_error _ -> ()
      | v ->
        Alcotest.failf "%S parsed to %s instead of raising" s (P.print v))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2";
      "{\"a\" 1}"; "\"\\ud83d\"" ]

let test_print_round_trip_property =
  qcheck ~count:1000 "print/parse preserves float bits"
    QCheck2.Gen.float (fun x ->
      if Float.is_finite x then
        match P.parse (P.print (P.Num x)) with
        | P.Num y -> Int64.equal (bits x) (bits y)
        | _ -> false
      else P.print (P.Num x) = "null")

let test_hex_bits_property =
  qcheck ~count:500 "bits hex side-channel round-trips"
    QCheck2.Gen.float (fun x ->
      P.bits_of_hex (P.hex_of_bits (bits x)) = Some (bits x))

let test_print_escapes () =
  check_true "control chars escape"
    (P.print (P.Str "a\nb\x01") = "\"a\\nb\\u0001\"");
  check_true "integral floats print without exponent"
    (P.print (P.Num 1000000.0) = "1000000");
  check_true "non-finite prints null" (P.print (P.Num nan) = "null")

(* ------------------------------------------------------------------ *)
(* Structural hashing: the content address behind the memo.           *)

let dep_models =
  [ G.Independent; G.Frechet_lower; G.Frechet_upper; G.Correlated 0.3;
    G.Correlated 0.7 ]

let test_hash_ignores_ids () =
  (* Same structure and numbers under different ids and statements must
     share one content address — the memo is keyed on what evaluation
     sees, nothing else. *)
  let build prefix =
    let b = G.Builder.create () in
    let e1 =
      G.Builder.evidence b ~id:(prefix ^ "e1") ~confidence:0.9 ()
    in
    let e2 =
      G.Builder.evidence b ~id:(prefix ^ "e2") ~confidence:0.8 ()
    in
    let r =
      G.Builder.goal b ~id:(prefix ^ "r") ~combinator:Casekit.Node.All
        [| e1; e2 |]
    in
    G.Builder.build b ~root:r
  in
  let a = build "left_" and b = build "completely_other_" in
  check_true "ids and statements excluded from the hash"
    (Int64.equal (G.root_hash a) (G.root_hash b));
  let c =
    let bld = G.Builder.create () in
    let e1 = G.Builder.evidence bld ~id:"e1" ~confidence:0.9 () in
    let e2 = G.Builder.evidence bld ~id:"e2" ~confidence:0.8000000001 () in
    let r =
      G.Builder.goal bld ~id:"r" ~combinator:Casekit.Node.All [| e1; e2 |]
    in
    G.Builder.build bld ~root:r
  in
  check_true "one ulp-level confidence change re-addresses"
    (not (Int64.equal (G.root_hash a) (G.root_hash c)))

let test_hash_generator_determinism () =
  let a = Gen.case ~seed:77 ~legs:3 ~fanout:4 ~depth:3 () in
  let b = Gen.case ~seed:77 ~legs:3 ~fanout:4 ~depth:3 () in
  check_true "same seed, same root hash"
    (Int64.equal (G.root_hash a) (G.root_hash b));
  let c = Gen.case ~seed:78 ~legs:3 ~fanout:4 ~depth:3 () in
  check_true "different seed, different root hash"
    (not (Int64.equal (G.root_hash a) (G.root_hash c)))

let test_hash_edit_then_revert () =
  let g = Gen.case ~seed:5 ~legs:3 ~fanout:4 ~depth:3 () in
  let h0 = G.root_hash g in
  let i = (G.evidence_indices g).(0) in
  let original = G.base_confidence g i in
  G.set_evidence g i 0.123;
  let h1 = G.root_hash g in
  check_true "edit re-addresses the root" (not (Int64.equal h0 h1));
  G.set_evidence g i original;
  check_true "reverting the edit restores the address"
    (Int64.equal h0 (G.root_hash g));
  (* Subtree hashes below the edited leaf's cone are untouched. *)
  G.set_evidence g i 0.123;
  let far_leaf = (G.evidence_indices g).(Array.length (G.evidence_indices g) - 1) in
  let before = G.structural_hash g far_leaf in
  G.set_evidence g i original;
  check_true "edits do not re-address disjoint subtrees"
    (Int64.equal before (G.structural_hash g far_leaf))

let test_hash_validation () =
  let g = Gen.case ~seed:5 ~legs:2 ~fanout:2 ~depth:1 () in
  check_raises_invalid "negative index" (fun () ->
      ignore (G.structural_hash g (-1)));
  check_raises_invalid "index past the end" (fun () ->
      ignore (G.structural_hash g (G.size g)))

let test_dependence_hash_distinct () =
  let hs = List.map G.dependence_hash dep_models in
  let distinct = List.sort_uniq Int64.compare hs in
  Alcotest.(check int) "all dependence models hash apart"
    (List.length dep_models) (List.length distinct);
  check_true "correlated hash depends on rho"
    (not
       (Int64.equal
          (G.dependence_hash (G.Correlated 0.3))
          (G.dependence_hash (G.Correlated 0.30000001))))

(* ------------------------------------------------------------------ *)
(* Engine: one request line in, one response line out.                *)

let handle eng line = P.parse (E.handle eng line)

let field r k =
  match P.member k r with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" k (P.print r)

let resp_ok r = field r "ok" = P.Bool true
let resp_cached r = field r "cached" = P.Bool true

let resp_bits r =
  match P.get_string (field r "bits") with
  | Some s -> (
    match P.bits_of_hex s with
    | Some b -> b
    | None -> Alcotest.failf "malformed bits %S" s)
  | None -> Alcotest.failf "bits not a string in %s" (P.print r)

let gen_line =
  "{\"op\":\"generate\",\"case\":\"g\",\"seed\":3,\"legs\":3,\"fanout\":4,\
   \"depth\":3}"

let eval_line = "{\"op\":\"evaluate\",\"case\":\"g\",\"dependence\":0.3}"

let test_engine_memo_contract () =
  let eng = E.create () in
  check_true "generate ok" (resp_ok (handle eng gen_line));
  let twin = Gen.case ~seed:3 ~legs:3 ~fanout:4 ~depth:3 () in
  let expected = bits (G.propagate (G.Correlated 0.3) twin) in
  let cold = handle eng eval_line in
  check_true "cold evaluate ok" (resp_ok cold);
  check_true "cold evaluate is a miss" (not (resp_cached cold));
  check_true "cold bits match an out-of-band propagation"
    (Int64.equal (resp_bits cold) expected);
  let hot = handle eng eval_line in
  check_true "repeat evaluate hits" (resp_cached hot);
  check_true "hit bits identical to cold"
    (Int64.equal (resp_bits hot) (resp_bits cold));
  let bypass =
    handle eng
      "{\"op\":\"evaluate\",\"case\":\"g\",\"dependence\":0.3,\"memo\":false}"
  in
  check_true "memo:false bypasses the cache" (not (resp_cached bypass));
  check_true "bypass bits still identical"
    (Int64.equal (resp_bits bypass) expected);
  Alcotest.(check int) "one hit" 1 (E.hits eng);
  Alcotest.(check int) "one miss" 1 (E.misses eng);
  (* Every further repeat hits and carries the cold bits. *)
  let repeats = 200 in
  let all_hit = ref true in
  for _ = 1 to repeats do
    let r = handle eng eval_line in
    if not (resp_cached r && Int64.equal (resp_bits r) expected) then
      all_hit := false
  done;
  check_true "every repeat hits with the cold bits" !all_hit;
  Alcotest.(check int) "hits = repeated requests" (1 + repeats) (E.hits eng)

let edit_line node v =
  Printf.sprintf
    "{\"op\":\"edit\",\"case\":\"g\",\"node\":%d,\"value\":%s,\
     \"dependence\":0.3}"
    node
    (P.print (P.Num v))

let test_engine_edit_identity () =
  let eng = E.create () in
  ignore (E.handle eng gen_line);
  ignore (E.handle eng eval_line);
  let twin = Gen.case ~seed:3 ~legs:3 ~fanout:4 ~depth:3 () in
  let leaves = G.evidence_indices twin in
  (* An edit storm mirrored onto the twin: after every edit the
     daemon's incremental bits must equal a from-scratch propagation of
     the twin. *)
  let rng = rng_of_seed 17 in
  let mismatches = ref 0 in
  for _ = 1 to 300 do
    let i = leaves.(Numerics.Rng.int rng (Array.length leaves)) in
    let v = Numerics.Rng.uniform rng 0.5 0.999 in
    G.set_evidence twin i v;
    let r = handle eng (edit_line i v) in
    if not (Int64.equal (resp_bits r) (bits (G.propagate (G.Correlated 0.3) twin)))
    then incr mismatches
  done;
  Alcotest.(check int) "storm edits that differ from the twin" 0 !mismatches;
  let i = leaves.(1) in
  let edited = handle eng (edit_line i 0.77) in
  check_true "edit ok" (resp_ok edited);
  G.set_evidence twin i 0.77;
  let expected = bits (G.propagate (G.Correlated 0.3) twin) in
  check_true "incremental edit bit-identical to full propagation"
    (Int64.equal (resp_bits edited) expected);
  (* The edit memoised the post-edit state: an evaluate of it hits. *)
  let after = handle eng eval_line in
  check_true "evaluate after edit hits the memoised state"
    (resp_cached after);
  check_true "memoised post-edit bits" (Int64.equal (resp_bits after) expected);
  (* Flush forces the cold path, which must reproduce the same bits. *)
  check_true "flush ok" (resp_ok (handle eng "{\"op\":\"flush\"}"));
  let cold = handle eng eval_line in
  check_true "post-flush evaluate is cold" (not (resp_cached cold));
  check_true "cold re-evaluation reproduces the incremental bits"
    (Int64.equal (resp_bits cold) expected)

let test_engine_edit_cycle_rehits () =
  (* An edit cycle that returns the graph to a previous state must hit
     the memo entry recorded for that state — content addressing, not
     per-case versioning. *)
  let eng = E.create () in
  ignore (E.handle eng gen_line);
  let first = handle eng eval_line in
  let twin = Gen.case ~seed:3 ~legs:3 ~fanout:4 ~depth:3 () in
  let i = (G.evidence_indices twin).(0) in
  let original = G.base_confidence twin i in
  let edit v =
    handle eng
      (Printf.sprintf
         "{\"op\":\"edit\",\"case\":\"g\",\"node\":%d,\"value\":%s,\
          \"dependence\":0.3}"
         i
         (P.print (P.Num v)))
  in
  ignore (edit 0.4);
  let back = edit original in
  check_true "returning edit reproduces the original bits"
    (Int64.equal (resp_bits back) (resp_bits first));
  let hits_before = E.hits eng in
  let again = handle eng eval_line in
  check_true "evaluate of the restored state hits" (resp_cached again);
  Alcotest.(check int) "memo hit counted" (hits_before + 1) (E.hits eng)

let test_engine_named_node_and_case_file () =
  let eng = E.create () in
  let load =
    handle eng
      (Printf.sprintf "{\"op\":\"load\",\"case\":\"s\",\"path\":\"%s\"}"
         (fixture "examples/shutdown.case"))
  in
  check_true "load ok" (resp_ok load);
  let root = handle eng "{\"op\":\"evaluate\",\"case\":\"s\"}" in
  check_true "evaluate loaded case" (resp_ok root);
  (* Evaluate a named interior node and cross-check out of band. *)
  let g = (fun () ->
    let text =
      In_channel.with_open_bin (fixture "examples/shutdown.case")
        In_channel.input_all
    in
    G.of_node (Casekit.Case_format.parse text)) ()
  in
  match G.find g "G2" with
  | None -> () (* fixture has no G2 node; root check above suffices *)
  | Some idx ->
    let sub = handle eng "{\"op\":\"evaluate\",\"case\":\"s\",\"node\":\"G2\"}" in
    check_true "named node ok" (resp_ok sub);
    ignore (G.propagate G.Independent g);
    check_true "named node bits match"
      (Int64.equal (resp_bits sub) (bits (G.value g idx)))

let test_engine_quantile_check_audit_stats () =
  let eng = E.create () in
  let lb =
    handle eng
      (Printf.sprintf
         "{\"op\":\"load_belief\",\"belief\":\"b\",\"path\":\"%s\"}"
         (fixture "examples/sis.belief"))
  in
  check_true "load_belief ok" (resp_ok lb);
  let q = handle eng "{\"op\":\"quantile\",\"belief\":\"b\",\"p\":0.5}" in
  check_true "quantile ok" (resp_ok q);
  let expected =
    Dist.Mixture.quantile
      (Elicit.Belief_format.parse_file (fixture "examples/sis.belief"))
      0.5
  in
  (match P.get_num (field q "value") with
  | Some v -> check_true "quantile matches the library" (same_bits v expected)
  | None -> Alcotest.fail "quantile value missing");
  let chk =
    handle eng
      (Printf.sprintf "{\"op\":\"check\",\"path\":\"%s\"}"
         (fixture "examples/shutdown.case"))
  in
  check_true "check ok" (resp_ok chk);
  check_true "good fixture has no errors" (field chk "errors" = P.Num 0.0);
  ignore (E.handle eng gen_line);
  let audit =
    handle eng "{\"op\":\"audit\",\"case\":\"g\",\"target\":0.9}"
  in
  check_true "audit ok" (resp_ok audit);
  let stats = handle eng "{\"op\":\"stats\"}" in
  check_true "stats ok" (resp_ok stats);
  check_true "stats counts cases" (field stats "cases" = P.Num 1.0);
  check_true "stats counts beliefs" (field stats "beliefs" = P.Num 1.0)

let test_engine_errors () =
  let eng = E.create () in
  let expect_error name line =
    let r = handle eng line in
    check_true (name ^ " fails") (field r "ok" = P.Bool false);
    match P.get_string (field r "error") with
    | Some msg -> check_true (name ^ " carries a message") (msg <> "")
    | None -> Alcotest.failf "%s: error not a string" name
  in
  expect_error "malformed JSON" "{nope";
  expect_error "unknown op" "{\"op\":\"frobnicate\"}";
  expect_error "missing case" "{\"op\":\"evaluate\",\"case\":\"nope\"}";
  expect_error "missing belief" "{\"op\":\"quantile\",\"belief\":\"nope\",\"p\":0.5}";
  ignore (E.handle eng gen_line);
  expect_error "p out of range"
    "{\"op\":\"quantile\",\"belief\":\"b\",\"p\":1.5}";
  expect_error "two edit targets"
    "{\"op\":\"edit\",\"case\":\"g\",\"node\":0,\"evidence\":\"x\",\"value\":0.5}";
  expect_error "edit index out of range"
    "{\"op\":\"edit\",\"case\":\"g\",\"node\":999999999,\"value\":0.5}";
  expect_error "unknown node id"
    "{\"op\":\"evaluate\",\"case\":\"g\",\"node\":\"nope\"}";
  expect_error "unreadable load path"
    "{\"op\":\"load\",\"case\":\"x\",\"path\":\"/does/not/exist.case\"}";
  (* A bad dependence model, as a string or a number, gets this exact
     error text. *)
  List.iter
    (fun dep ->
      let r =
        handle eng
          (Printf.sprintf "{\"op\":\"evaluate\",\"case\":\"g\",\"dependence\":%s}"
             dep)
      in
      Alcotest.(check string)
        ("dependence " ^ dep ^ " rejected verbatim")
        "\"dependence\" must be independent | frechet-lower | frechet-upper \
         | rho in [0,1]"
        (Option.value ~default:"" (P.get_string (field r "error"))))
    [ "\"1.5\""; "\"Independent\""; "\"\""; "1.5"; "true" ];
  (* The id member is echoed even on errors. *)
  let r = handle eng "{\"op\":\"frobnicate\",\"id\":\"req-9\"}" in
  check_true "id echoed on error" (field r "id" = P.Str "req-9")

let test_engine_stream_ops () =
  let eng = E.create () in
  (* Create, ingest, posterior: the served posterior must carry the
     library's bits exactly. *)
  let mk =
    handle eng "{\"op\":\"stream\",\"stream\":\"s\",\"beta_a\":1.5,\"beta_b\":100}"
  in
  check_true "stream create ok" (resp_ok mk);
  check_true "stream mode" (field mk "mode" = P.Str "demand");
  let ing =
    handle eng "{\"op\":\"ingest\",\"stream\":\"s\",\"demands\":400,\"failures\":3}"
  in
  check_true "ingest ok" (resp_ok ing);
  check_true "ingest totals" (field ing "demands" = P.Num 400.0);
  let post = handle eng "{\"op\":\"posterior\",\"stream\":\"s\",\"bound\":0.01}" in
  check_true "posterior ok" (resp_ok post);
  let twin = Serve.Engine.create () in
  ignore twin;
  let expected =
    let acc = Experience.Stream.demand_beta ~a:1.5 ~b:100.0 in
    Experience.Stream.observe_demands acc ~demands:400 ~failures:3;
    acc
  in
  check_true "posterior bits match the library"
    (Int64.equal (resp_bits post) (bits (Experience.Stream.mean expected)));
  (match P.get_string (field post "confidence_bits") with
  | Some hex ->
    check_true "confidence bits match"
      (P.bits_of_hex hex
      = Some (bits (Experience.Stream.confidence expected ~bound:0.01)))
  | None -> Alcotest.fail "confidence_bits missing");
  (* Trajectory: one point per extra, confidences monotone in extras. *)
  let traj =
    handle eng
      "{\"op\":\"trajectory\",\"stream\":\"s\",\"bound\":0.01,\
       \"extras\":[0,1000,10000]}"
  in
  check_true "trajectory ok" (resp_ok traj);
  (match field traj "points" with
  | P.Arr [ a; b; c ] ->
    let conf p =
      match P.get_num (field p "confidence") with
      | Some x -> x
      | None -> Alcotest.fail "point lacks confidence"
    in
    check_true "confidence grows along the trajectory"
      (conf a <= conf b && conf b <= conf c)
  | _ -> Alcotest.fail "expected three trajectory points");
  (* Save, reload under another name, check the restored posterior. *)
  let snap = Filename.temp_file "confcase_serve_stream" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
    (fun () ->
      let sv =
        handle eng
          (Printf.sprintf
             "{\"op\":\"stream_save\",\"stream\":\"s\",\"path\":%s}"
             (P.print (P.Str snap)))
      in
      check_true "stream_save ok" (resp_ok sv);
      let ld =
        handle eng
          (Printf.sprintf
             "{\"op\":\"stream_load\",\"stream\":\"s2\",\"path\":%s}"
             (P.print (P.Str snap)))
      in
      check_true "stream_load ok" (resp_ok ld);
      let p2 = handle eng "{\"op\":\"posterior\",\"stream\":\"s2\"}" in
      check_true "restored posterior bits identical"
        (Int64.equal (resp_bits p2) (resp_bits post)));
  let stats = handle eng "{\"op\":\"stats\"}" in
  check_true "stats counts streams" (field stats "streams" = P.Num 2.0);
  (* Single-event ingests through the request path equal one library
     observe of the pooled count. *)
  ignore
    (E.handle eng "{\"op\":\"stream\",\"stream\":\"one\",\"beta_a\":1.5,\"beta_b\":100}");
  for _ = 1 to 500 do
    ignore
      (E.handle eng "{\"op\":\"ingest\",\"stream\":\"one\",\"demands\":1,\"failures\":0}")
  done;
  let pooled = Experience.Stream.demand_beta ~a:1.5 ~b:100.0 in
  Experience.Stream.observe_demands pooled ~demands:500 ~failures:0;
  check_true "500 single-event ingests == one pooled observe"
    (Int64.equal
       (resp_bits (handle eng "{\"op\":\"posterior\",\"stream\":\"one\"}"))
       (bits (Experience.Stream.mean pooled)));
  (* Group keys: stream traffic is groupable per stream; creation and
     restore are barriers. *)
  let key line = E.group_key (E.parse eng line) in
  check_true "ingest groups by stream"
    (key "{\"op\":\"ingest\",\"stream\":\"s\",\"demands\":1}" = Some "s:s");
  check_true "posterior groups by stream"
    (key "{\"op\":\"posterior\",\"stream\":\"s\"}" = Some "s:s");
  check_true "create is a barrier"
    (key "{\"op\":\"stream\",\"stream\":\"x\",\"beta_a\":1,\"beta_b\":1}" = None);
  check_true "load is a barrier"
    (key "{\"op\":\"stream_load\",\"stream\":\"x\",\"path\":\"p\"}" = None)

let test_engine_stream_errors () =
  let eng = E.create () in
  let expect_error name line =
    let r = handle eng line in
    check_true (name ^ " fails") (field r "ok" = P.Bool false)
  in
  expect_error "unknown stream" "{\"op\":\"posterior\",\"stream\":\"nope\"}";
  expect_error "no prior" "{\"op\":\"stream\",\"stream\":\"x\"}";
  expect_error "two priors"
    "{\"op\":\"stream\",\"stream\":\"x\",\"beta_a\":1,\"beta_b\":1,\
     \"gamma_shape\":1,\"gamma_rate\":1}";
  expect_error "half a beta" "{\"op\":\"stream\",\"stream\":\"x\",\"beta_a\":1}";
  ignore
    (E.handle eng "{\"op\":\"stream\",\"stream\":\"s\",\"beta_a\":1,\"beta_b\":1}");
  expect_error "both demands and hours"
    "{\"op\":\"ingest\",\"stream\":\"s\",\"demands\":1,\"hours\":1}";
  expect_error "neither demands nor hours" "{\"op\":\"ingest\",\"stream\":\"s\"}";
  expect_error "wrong-mode ingest" "{\"op\":\"ingest\",\"stream\":\"s\",\"hours\":5}";
  expect_error "failures > demands"
    "{\"op\":\"ingest\",\"stream\":\"s\",\"demands\":1,\"failures\":2}";
  expect_error "fractional demand-mode extras"
    "{\"op\":\"trajectory\",\"stream\":\"s\",\"bound\":0.01,\"extras\":[1.5]}";
  expect_error "unreadable snapshot"
    "{\"op\":\"stream_load\",\"stream\":\"x\",\"path\":\"/does/not/exist\"}"

let test_engine_memo_bound () =
  (* Overflow clears the memo wholesale rather than growing without
     bound; the next evaluations repopulate it. *)
  let eng = E.create ~memo_bound:4 () in
  ignore (E.handle eng gen_line);
  let twin = Gen.case ~seed:3 ~legs:3 ~fanout:4 ~depth:3 () in
  let evs = G.evidence_indices twin in
  for k = 0 to 9 do
    ignore
      (E.handle eng
         (Printf.sprintf
            "{\"op\":\"edit\",\"case\":\"g\",\"node\":%d,\"value\":%s,\
             \"dependence\":0.3}"
            evs.(k mod Array.length evs)
            (P.print (P.Num (0.3 +. (0.05 *. float_of_int k))))))
  done;
  check_true "memo stays within its bound" (E.memo_entries eng <= 4)

(* ------------------------------------------------------------------ *)
(* Server: pipe mode end to end over real descriptors.                *)

(* [pipe_session requests] — the non-blank response lines of a pipe-mode
   server fed [requests], one a line.  The whole script fits far inside
   the pipe buffer, so it is written first and closed, then the server
   runs to completion on this thread. *)
let pipe_session requests =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let b = Bytes.of_string (String.concat "\n" requests ^ "\n") in
  ignore (Unix.write req_w b 0 (Bytes.length b));
  Unix.close req_w;
  let eng = E.create () in
  let config = Serve.Server.config () in
  Serve.Server.run_pipe config eng ~input:req_r ~output:resp_w;
  Unix.close resp_w;
  Unix.close req_r;
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read resp_r chunk 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
  in
  drain ();
  Unix.close resp_r;
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> String.trim l <> "")

let test_pipe_server_end_to_end () =
  let lines =
    pipe_session
      [ gen_line;
        eval_line;
        eval_line;
        "{\"op\":\"stats\",\"id\":\"st\"}";
        "{\"op\":\"shutdown\"}" ]
  in
  Alcotest.(check int) "five responses for five requests" 5
    (List.length lines);
  let rs = List.map P.parse lines in
  List.iteri
    (fun k r ->
      check_true (Printf.sprintf "response %d ok" k) (resp_ok r))
    rs;
  (match rs with
  | [ _gen; cold; hot; stats; _bye ] ->
    check_true "pipe cold evaluate is a miss" (not (resp_cached cold));
    check_true "pipe repeat evaluate hits" (resp_cached hot);
    check_true "pipe hit bit-identical"
      (Int64.equal (resp_bits hot) (resp_bits cold));
    check_true "stats id echoed" (field stats "id" = P.Str "st")
  | _ -> Alcotest.fail "unexpected response shape")

(* 2^62 is integral but one past [max_int]: [get_int] must refuse it
   rather than wrap it to [min_int]. *)
let test_get_int_range () =
  check_true "2^62 is no int" (P.get_int (P.Num 0x1p62) = None);
  check_true "-2^62 is min_int" (P.get_int (P.Num (-0x1p62)) = Some min_int);
  check_true "2^62 - 512 is exact" (P.get_int (P.Num (0x1p62 -. 512.0)) = Some (max_int - 511));
  match
    pipe_session
      [ "{\"op\":\"generate\",\"case\":\"h\",\"seed\":11,\"legs\":4611686018427387904,\
         \"fanout\":3,\"depth\":2}" ]
  with
  | [ line ] ->
    let r = P.parse line in
    check_true "refused" (not (resp_ok r));
    Alcotest.(check (option string))
      "error" (Some "\"legs\" must be an integer") (P.get_string (field r "error"))
  | lines -> Alcotest.failf "%d responses for one request" (List.length lines)

let test_pipe_server_eof_without_shutdown () =
  (* EOF on the request stream must end the loop cleanly too. *)
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let b = Bytes.of_string (gen_line ^ "\n") in
  ignore (Unix.write req_w b 0 (Bytes.length b));
  Unix.close req_w;
  let eng = E.create () in
  Serve.Server.run_pipe (Serve.Server.config ()) eng ~input:req_r
    ~output:resp_w;
  Unix.close resp_w;
  Unix.close req_r;
  let chunk = Bytes.create 4096 in
  let n = Unix.read resp_r chunk 0 4096 in
  Unix.close resp_r;
  check_true "one response then clean exit"
    (resp_ok (P.parse (String.trim (Bytes.sub_string chunk 0 n))))

(* --- hostile input ------------------------------------------------------ *)

let protocol_fixtures =
  [ gen_line; eval_line; "{\"op\":\"stats\",\"id\":\"st\"}";
    "{\"a\": 1, \"b\": [true, false, null], \"s\": \"x\\u00e9\"}";
    "[[],{},[{\"k\":[-1.5e-3, 0.1, 1e300]}]]";
    "\"\\ud83d\\ude00\"";
    gen_line ^ "\n" ^ eval_line ]

let parse_total =
  total_parser ~parses:P.parse ~expected:(function
    | P.Parse_error _ -> true
    | _ -> false)

let test_protocol_hostile_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:3000 ~name:"protocol parse is total on hostile bytes"
       ~print:(Printf.sprintf "%S") (gen_hostile_text protocol_fixtures) parse_total)

let test_protocol_deep_nesting () =
  check_true "10^6 open brackets" (parse_total deep_brackets);
  check_true "10^6 balanced brackets" (parse_total deep_balanced)

(* --- line framing ------------------------------------------------------- *)

(* [run_pipe] over [input] read from a file, so lines longer than a pipe
   buffer need no writer thread; returns the response lines. *)
let pipe_responses input =
  let path = Filename.temp_file "confcase_pipe" ".in" in
  let out = Filename.temp_file "confcase_pipe" ".out" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ path; out ])
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc input);
      let i = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      let o = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
      Serve.Server.run_pipe (Serve.Server.config ()) (E.create ()) ~input:i ~output:o;
      Unix.close i;
      Unix.close o;
      In_channel.with_open_bin out In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> ""))

(* The responses a fresh engine gives to the same lines one by one. *)
let direct_responses lines =
  let eng = E.create () in
  List.map (E.handle eng) lines

let test_pipe_line_framing () =
  (* A 200 KB line spans several 64 KiB reads. *)
  let long = "{\"op\":\"stats\",\"id\":\"long\"," ^ String.make 200_000 ' ' ^ "}" in
  let lines = [ gen_line; long; eval_line ] in
  Alcotest.(check (list string)) "a line longer than one read"
    (direct_responses lines) (pipe_responses (String.concat "\n" lines ^ "\n"));
  (* Many lines in one read. *)
  let lines =
    gen_line
    :: List.init 300 (fun k ->
           if k mod 3 = 0 then eval_line
           else Printf.sprintf "{\"op\":\"stats\",\"id\":%d}" k)
  in
  Alcotest.(check (list string)) "many lines in one read"
    (direct_responses lines) (pipe_responses (String.concat "\n" lines ^ "\n"));
  (* A final line with no newline still gets its response. *)
  let lines = [ gen_line; eval_line ] in
  Alcotest.(check (list string)) "final line without a newline"
    (direct_responses lines) (pipe_responses (String.concat "\n" lines))

let suite =
  [ case "protocol parse basics" test_parse_basics;
    case "protocol parse errors" test_parse_errors;
    case "protocol printer escapes" test_print_escapes;
    test_print_round_trip_property;
    test_hex_bits_property;
    case "hash ignores ids and statements" test_hash_ignores_ids;
    case "hash generator determinism" test_hash_generator_determinism;
    case "hash edit then revert" test_hash_edit_then_revert;
    case "hash index validation" test_hash_validation;
    case "dependence hashes distinct" test_dependence_hash_distinct;
    case "engine memo contract" test_engine_memo_contract;
    case "engine edit identity" test_engine_edit_identity;
    case "engine edit cycle re-hits" test_engine_edit_cycle_rehits;
    case "engine load and named nodes" test_engine_named_node_and_case_file;
    case "engine quantile/check/audit/stats"
      test_engine_quantile_check_audit_stats;
    case "engine error responses" test_engine_errors;
    case "engine stream ops" test_engine_stream_ops;
    case "engine stream errors" test_engine_stream_errors;
    case "engine memo bound" test_engine_memo_bound;
    case "pipe server end to end" test_pipe_server_end_to_end;
    case "pipe server EOF exit" test_pipe_server_eof_without_shutdown;
    case "get_int refuses 2^62" test_get_int_range;
    case "pipe line framing" test_pipe_line_framing;
    case "protocol deep nesting" test_protocol_deep_nesting;
    test_protocol_hostile_property ]
