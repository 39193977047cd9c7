open Helpers
module N = Casekit.Node
module G = Casekit.Graph
module Gen = Casekit.Generate
module P = Casekit.Propagate

let bits = Int64.bits_of_float
let same_bits a b = Int64.equal (bits a) (bits b)

let models =
  [ ("independent", G.Independent);
    ("frechet lower", G.Frechet_lower);
    ("frechet upper", G.Frechet_upper);
    ("correlated 0.37", G.Correlated 0.37);
    ("correlated 1.0", G.Correlated 1.0) ]

(* A random case tree with unique ids ("n0", "n1", ...; assumptions
   "a0", "a1", ...), driven by one deterministic Rng so every qcheck
   counterexample is a reproducible (seed, depth) pair. *)
let random_tree rng ~depth =
  let next = ref 0 and anext = ref 0 in
  let fresh p r =
    let i = !r in
    incr r;
    Printf.sprintf "%s%d" p i
  in
  let rec build d =
    if d = 0 || Numerics.Rng.bernoulli rng 0.3 then
      N.evidence ~id:(fresh "n" next) ~statement:"leaf"
        ~confidence:(Numerics.Rng.uniform rng 0.05 0.999)
    else begin
      let n = 1 + Numerics.Rng.int rng 4 in
      let kids = ref [] in
      for _ = 1 to n do
        kids := build (d - 1) :: !kids
      done;
      let combinator = if Numerics.Rng.bernoulli rng 0.3 then N.Any else N.All in
      let assumptions =
        if Numerics.Rng.bernoulli rng 0.3 then
          [ N.assumption ~id:(fresh "a" anext) ~statement:"assume"
              ~p_valid:(Numerics.Rng.uniform rng 0.5 0.999) ]
        else []
      in
      N.goal ~id:(fresh "n" next) ~statement:"goal" ~combinator ~assumptions
        (List.rev !kids)
    end
  in
  (* Force at least one goal so edits always have an ancestor to dirty. *)
  let child = build depth in
  N.goal ~id:(fresh "n" next) ~statement:"root" [ child ]

let gen_seed_depth = QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 4))

let test_bitwise_identity_property =
  qcheck ~count:150 "propagate (of_node t) == Propagate.confidence, bitwise"
    gen_seed_depth (fun (seed, depth) ->
      let t = random_tree (rng_of_seed seed) ~depth in
      let g = G.of_node t in
      List.for_all
        (fun (_, dep) -> same_bits (G.propagate dep g) (P.confidence dep t))
        models)

let test_incremental_identity_property =
  qcheck ~count:100 "refresh after random edits == full propagate, bitwise"
    gen_seed_depth (fun (seed, depth) ->
      let rng = rng_of_seed seed in
      let t = ref (random_tree rng ~depth) in
      let g = G.of_node !t in
      let dep = G.Correlated 0.37 in
      ignore (G.propagate dep g);
      let evs = G.evidence_indices g in
      let ok = ref true in
      for _ = 1 to 12 do
        let i = evs.(Numerics.Rng.int rng (Array.length evs)) in
        let c = Numerics.Rng.uniform rng 0.1 0.999 in
        G.set_evidence g i c;
        t := P.what_if !t ~id:(G.id_of g i) ~confidence:c;
        let inc = G.refresh dep g in
        (* The incremental value must match both a full re-propagation of
           the same graph and the boxed-tree reference, bit for bit. *)
        if not (same_bits inc (P.confidence dep !t)) then ok := false;
        if not (same_bits inc (G.propagate dep g)) then ok := false
      done;
      !ok)

(* Edit-order convergence: a batch of edits over distinct targets must
   land on the same root — bitwise — whatever order they are applied
   and refreshed in, and that root must equal a full propagation of a
   graph holding the final values.  This is the property the serve
   daemon's concurrency model rests on: within one graph requests are
   serialised but their arrival order is arbitrary. *)
let test_edit_order_convergence_property =
  qcheck ~count:100
    "interleaved set_evidence/set_assumption orders converge bitwise"
    gen_seed_depth (fun (seed, depth) ->
      let rng = rng_of_seed seed in
      let t = random_tree rng ~depth in
      let dep = G.Correlated 0.37 in
      (* Distinct-target edit batch: a final value for every leaf that
         gets edited at all, plus any assumptions present. *)
      let probe = G.of_node t in
      let evs = G.evidence_indices probe in
      let edits = ref [] in
      Array.iter
        (fun i ->
          if Numerics.Rng.bernoulli rng 0.5 then
            edits :=
              `Evidence (G.id_of probe i, Numerics.Rng.uniform rng 0.1 0.999)
              :: !edits)
        evs;
      for a = 0 to 2 do
        let aid = Printf.sprintf "a%d" a in
        if
          (match G.set_assumption probe ~id:aid ~p_valid:0.9 with
          | () -> true
          | exception Not_found -> false)
          && Numerics.Rng.bernoulli rng 0.5
        then
          edits :=
            `Assumption (aid, Numerics.Rng.uniform rng 0.5 0.999) :: !edits
      done;
      let edits = Array.of_list !edits in
      let apply g = function
        | `Evidence (id, v) -> (
          match G.find g id with
          | Some i -> G.set_evidence g i v
          | None -> Alcotest.failf "lost evidence id %s" id)
        | `Assumption (id, v) -> G.set_assumption g ~id ~p_valid:v
      in
      let shuffled () =
        let order = Array.copy edits in
        for i = Array.length order - 1 downto 1 do
          let j = Numerics.Rng.int rng (i + 1) in
          let tmp = order.(i) in
          order.(i) <- order.(j);
          order.(j) <- tmp
        done;
        order
      in
      (* Reference: apply everything, then propagate from scratch. *)
      let reference = G.of_node t in
      Array.iter (apply reference) edits;
      let expected = bits (G.propagate dep reference) in
      (* Two independent interleavings, refreshing after every edit the
         way the daemon does. *)
      List.for_all
        (fun () ->
          let g = G.of_node t in
          ignore (G.propagate dep g);
          let last = ref (G.value g (G.root g)) in
          Array.iter
            (fun e ->
              apply g e;
              last := G.refresh dep g)
            (shuffled ());
          Int64.equal (bits !last) expected)
        [ (); () ])

let test_assumption_edit_identity () =
  let t = random_tree (rng_of_seed 42) ~depth:4 in
  let g = G.of_node t in
  let dep = G.Correlated 0.5 in
  ignore (G.propagate dep g);
  let t' = P.what_if_assumption t ~id:"a0" ~p_valid:0.6 in
  G.set_assumption g ~id:"a0" ~p_valid:0.6;
  let inc = G.refresh dep g in
  check_true "assumption edit matches boxed tree"
    (same_bits inc (P.confidence dep t'));
  check_true "assumption edit matches full propagate"
    (same_bits inc (G.propagate dep g))

let test_round_trip () =
  let t = random_tree (rng_of_seed 7) ~depth:3 in
  let g = G.of_node t in
  check_true "tree bridge round-trips structurally" (G.to_node g = t);
  check_true "bridged graph is a tree" (G.is_tree g);
  Alcotest.(check int) "same node count" (N.size t) (G.size g)

(* The bad_shutdown shape as a true DAG: one evidence item cited from
   both legs of an `any` goal.  Three distinct evidence items under the
   goal, one shared -> overlap 1/3, matching the C009 fraction. *)
let shared_dag () =
  let b = G.Builder.create () in
  let es = G.Builder.evidence b ~id:"ES" ~confidence:0.9 () in
  let e1 = G.Builder.evidence b ~id:"E1" ~confidence:0.8 () in
  let e2 = G.Builder.evidence b ~id:"E2" ~confidence:0.7 () in
  let l1 = G.Builder.goal b ~id:"L1" ~combinator:N.All [| es; e1 |] in
  let l2 = G.Builder.goal b ~id:"L2" ~combinator:N.All [| es; e2 |] in
  let r = G.Builder.goal b ~id:"R" ~combinator:N.Any [| l1; l2 |] in
  (G.Builder.build b ~root:r, es, r)

let test_dag_overlap () =
  let g, es, r = shared_dag () in
  check_true "shared evidence breaks treeness" (not (G.is_tree g));
  Alcotest.(check int) "shared leaf has two parents" 2 (G.parent_count g es);
  Alcotest.(check int) "six nodes, not seven" 6 (G.size g);
  check_true "overlap fraction is exactly 1/3"
    (same_bits (G.overlap_fraction g r) (1.0 /. 3.0));
  check_true "max overlap is the root's" (same_bits (G.max_overlap g) (1.0 /. 3.0));
  (match G.to_node g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "to_node must reject a DAG")

let test_dag_correlation_floor () =
  let g, _, _ = shared_dag () in
  (* Under Correlated rho with rho < 1/3 the Any root combines at the
     overlap floor 1/3 while the All legs keep rho: the static C009
     warning becomes a quantitative discount. *)
  let rho = 0.2 in
  let v1 = ((1.0 -. rho) *. (0.9 *. 0.8)) +. (rho *. 0.8) in
  let v2 = ((1.0 -. rho) *. (0.9 *. 0.7)) +. (rho *. 0.7) in
  let floor_rho = 1.0 /. 3.0 in
  let ind = 1.0 -. ((1.0 -. v1) *. (1.0 -. v2)) in
  let como = if v1 >= v2 then v1 else v2 in
  let expected = ((1.0 -. floor_rho) *. ind) +. (floor_rho *. como) in
  check_close ~eps:1e-12 "root combined at max(rho, overlap)" expected
    (G.propagate (G.Correlated rho) g);
  (* At rho above the overlap the floor is inert. *)
  let rho' = 0.8 in
  let v1' = ((1.0 -. rho') *. (0.9 *. 0.8)) +. (rho' *. 0.8) in
  let v2' = ((1.0 -. rho') *. (0.9 *. 0.7)) +. (rho' *. 0.7) in
  let ind' = 1.0 -. ((1.0 -. v1') *. (1.0 -. v2')) in
  let como' = if v1' >= v2' then v1' else v2' in
  let expected' = ((1.0 -. rho') *. ind') +. (rho' *. como') in
  check_close ~eps:1e-12 "rho above overlap wins" expected'
    (G.propagate (G.Correlated rho') g)

let test_dag_incremental () =
  let g, es, _ = shared_dag () in
  let dep = G.Correlated 0.2 in
  ignore (G.propagate dep g);
  G.set_evidence g es 0.5;
  let inc = G.refresh dep g in
  check_true "DAG edit through a shared leaf matches full propagate"
    (same_bits inc (G.propagate dep g))

let test_parallel_identity () =
  let tree = Gen.case ~seed:9 ~legs:3 ~fanout:4 ~depth:3 () in
  let dag = Gen.case ~seed:9 ~legs:3 ~fanout:4 ~depth:3 ~shared:0.3 () in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (mname, dep) ->
          let seq = G.propagate dep g in
          List.iter
            (fun num_domains ->
              let par =
                Numerics.Parallel.with_pool ~num_domains (fun pool ->
                    G.propagate_par ~pool ~chunks:64 dep g)
              in
              check_true
                (Printf.sprintf "%s/%s bit-identical at %d domains" name mname
                   num_domains)
                (same_bits seq par))
            [ 1; 2; 4 ])
        models)
    [ ("tree", tree); ("dag", dag) ]

let test_generator () =
  Alcotest.(check int) "9/10/5 is exactly a million"
    1_000_000
    (Gen.node_count ~legs:9 ~fanout:10 ~depth:5);
  let g1 = Gen.case ~seed:123 ~shared:0.5 () in
  let g2 = Gen.case ~seed:123 ~shared:0.5 () in
  Alcotest.(check int) "same seed, same size" (G.size g1) (G.size g2);
  check_true "same seed, same root value, bitwise"
    (same_bits (G.propagate G.Independent g1) (G.propagate G.Independent g2));
  let g3 = Gen.case ~seed:124 ~shared:0.5 () in
  check_true "different seed differs"
    (not (same_bits (G.propagate G.Independent g1) (G.propagate G.Independent g3)));
  let t = Gen.case ~seed:5 () in
  check_true "shared = 0 yields a tree" (G.is_tree t);
  Alcotest.(check int) "tree size matches the closed form"
    (Gen.node_count ~legs:3 ~fanout:4 ~depth:3)
    (G.size t);
  check_true "shared = 1 yields a DAG"
    (not (G.is_tree (Gen.case ~seed:5 ~shared:1.0 ())));
  check_raises_invalid "legs < 1" (fun () -> ignore (Gen.case ~legs:0 ()));
  check_raises_invalid "shared out of range" (fun () ->
      ignore (Gen.case ~shared:1.5 ()));
  check_raises_invalid "bad leaf range" (fun () ->
      ignore (Gen.case ~leaf:(0.9, 0.5) ()))

let test_generator_edge_knobs () =
  (* legs = 1: the root goes conjunctive — a disjunction needs at least
     two alternatives. *)
  let g1 = Gen.case ~seed:9 ~legs:1 () in
  check_true "single-leg root is an All goal"
    (match G.kind_of g1 (G.root g1) with G.All_goal -> true | _ -> false);
  Alcotest.(check int) "single-leg node count matches the closed form"
    (Gen.node_count ~legs:1 ~fanout:4 ~depth:3)
    (G.size g1);
  (* depth = 1: one goal level per leg, leaves directly beneath. *)
  let g2 = Gen.case ~seed:9 ~legs:2 ~fanout:3 ~depth:1 () in
  Alcotest.(check int) "depth-1 node count" 9 (G.size g2);
  Alcotest.(check int) "depth-1 level schedule: leaves, legs, root" 3
    (G.levels g2);
  (* shared = 1.0: every later-leg leaf reuses first-leg evidence. *)
  let g3 = Gen.case ~seed:9 ~shared:1.0 () in
  check_true "full sharing yields a DAG" (not (G.is_tree g3));
  check_true "full sharing has positive overlap" (G.max_overlap g3 > 0.0);
  check_true "sharing only ever removes duplicated leaves"
    (G.size g3 <= Gen.node_count ~legs:3 ~fanout:4 ~depth:3)

(* The Builder invariant the whole CSR design rests on: children are
   emitted before parents, so ascending index is a topological order and
   the root comes last. *)
let test_children_before_parents_property =
  qcheck ~count:100 "generated graphs emit children before parents"
    QCheck2.Gen.(
      quad (int_bound 1_000_000) (int_range 1 3) (int_range 1 3)
        (float_bound_inclusive 1.0))
    (fun (seed, legs, depth, shared) ->
      let g = Gen.case ~seed ~legs ~fanout:3 ~depth ~shared () in
      let ok = ref true in
      for i = 0 to G.size g - 1 do
        Array.iter (fun c -> if c >= i then ok := false) (G.children g i)
      done;
      !ok && G.root g = G.size g - 1)

let test_edit_validation () =
  let g, es, r = shared_dag () in
  check_raises_invalid "set_evidence on a goal" (fun () ->
      G.set_evidence g r 0.5);
  check_raises_invalid "confidence out of range" (fun () ->
      G.set_evidence g es 1.5);
  (match G.set_assumption g ~id:"nope" ~p_valid:0.5 with
  | exception Not_found -> ()
  | () -> Alcotest.fail "expected Not_found");
  let b = G.Builder.create () in
  ignore (G.Builder.evidence b ~id:"X" ~confidence:0.9 ());
  check_raises_invalid "duplicate interned id" (fun () ->
      ignore (G.Builder.evidence b ~id:"X" ~confidence:0.9 ()));
  let b2 = G.Builder.create () in
  check_raises_invalid "goal with no children" (fun () ->
      ignore (G.Builder.goal b2 ~combinator:N.All [||]));
  check_raises_invalid "child index out of range" (fun () ->
      ignore (G.Builder.goal b2 ~combinator:N.All [| 3 |]))

(* Node and assumption ids live in one interned table: each kind of
   lookup sees only its own ids, and a clash across kinds is a
   duplicate, with or without a size hint. *)
let test_id_namespace () =
  let b = G.Builder.create ~capacity:4 ~ids:1 () in
  let e = G.Builder.evidence b ~id:"E" ~confidence:0.9 () in
  let a = N.assumption ~id:"A" ~statement:"a" ~p_valid:0.8 in
  let r = G.Builder.goal b ~id:"G" ~assumptions:[ a ] ~combinator:N.All [| e |] in
  let g = G.Builder.build b ~root:r in
  Alcotest.(check (option int)) "node id" (Some e) (G.find g "E");
  Alcotest.(check (option int)) "goal id" (Some r) (G.find g "G");
  Alcotest.(check (option int)) "assumption id is not a node" None (G.find g "A");
  G.set_assumption g ~id:"A" ~p_valid:0.5;
  check_close ~eps:0.0 "assumption edited" 0.5 (G.assumption_validity g r);
  (match G.set_assumption g ~id:"E" ~p_valid:0.5 with
  | exception Not_found -> ()
  | () -> Alcotest.fail "a node id is not an assumption");
  let b = G.Builder.create () in
  let e = G.Builder.evidence b ~id:"X" ~confidence:0.9 () in
  check_raises_invalid "assumption id clashing with a node id" (fun () ->
      ignore
        (G.Builder.goal b
           ~assumptions:[ N.assumption ~id:"X" ~statement:"x" ~p_valid:0.9 ]
           ~combinator:N.All [| e |]))

(* The sensitivity rankings now run on the incremental engine; this pins
   them to the old definition — a central difference of the boxed-tree
   re-evaluation — within 1e-12. *)
let old_central_difference f current =
  let h = 1e-4 in
  let lo = max 1e-6 (current -. h) and hi = min 1.0 (current +. h) in
  (f hi -. f lo) /. (hi -. lo)

let test_sensitivities_match_tree_path () =
  let t = random_tree (rng_of_seed 11) ~depth:3 in
  List.iter
    (fun (mname, dep) ->
      let sens = P.leaf_sensitivities dep t in
      List.iter
        (fun leaf ->
          match leaf with
          | N.Evidence { id; confidence; _ } ->
            let expected =
              old_central_difference
                (fun x -> P.confidence dep (P.what_if t ~id ~confidence:x))
                confidence
            in
            check_close ~eps:1e-12
              (Printf.sprintf "%s leaf %s sensitivity" mname id)
              expected (List.assoc id sens)
          | N.Goal _ -> ())
        (N.leaves t);
      let asens = P.assumption_sensitivities dep t in
      List.iter
        (fun (aid, s) ->
          let a =
            N.fold
              (fun acc n ->
                match n with
                | N.Goal g -> (
                  match List.find_opt (fun a -> a.N.aid = aid) g.assumptions with
                  | Some a -> Some a
                  | None -> acc)
                | N.Evidence _ -> acc)
              None t
          in
          match a with
          | None -> Alcotest.failf "unknown assumption %s" aid
          | Some a ->
            let expected =
              old_central_difference
                (fun x ->
                  P.confidence dep (P.what_if_assumption t ~id:aid ~p_valid:x))
                a.N.p_valid
            in
            check_close ~eps:1e-12
              (Printf.sprintf "%s assumption %s sensitivity" mname aid)
              expected s)
        asens)
    models

let suite =
  [ case "DAG overlap fraction" test_dag_overlap;
    case "correlation floored at overlap" test_dag_correlation_floor;
    case "DAG incremental refresh" test_dag_incremental;
    case "tree bridge round-trip" test_round_trip;
    case "assumption edit identity" test_assumption_edit_identity;
    case "parallel bit-identity (1/2/4 domains)" test_parallel_identity;
    case "generator determinism and node counts" test_generator;
    case "generator edge knobs (legs=1, depth=1, shared=1)"
      test_generator_edge_knobs;
    case "edit and builder validation" test_edit_validation;
    case "one id namespace for nodes and assumptions" test_id_namespace;
    test_children_before_parents_property;
    case "sensitivities match the boxed-tree path" test_sensitivities_match_tree_path;
    test_bitwise_identity_property;
    test_incremental_identity_property;
    test_edit_order_convergence_property ]
