open Helpers
module N = Casekit.Node
module G = Casekit.Graph
module Gen = Casekit.Generate
module O = Case_oracle

let bits = Int64.bits_of_float
let same_bits a b = Int64.equal (bits a) (bits b)

let models =
  [ ("independent", G.Independent);
    ("frechet lower", G.Frechet_lower);
    ("frechet upper", G.Frechet_upper);
    ("correlated 0.37", G.Correlated 0.37);
    ("correlated 1.0", G.Correlated 1.0) ]

let test_bitwise_identity_property =
  qcheck ~count:150 "propagate (of_node t) == oracle confidence, bitwise"
    gen_seed_depth (fun (seed, depth) ->
      let t = random_tree (rng_of_seed seed) ~depth in
      let g = G.of_node t in
      List.for_all
        (fun (_, dep) -> same_bits (G.propagate dep g) (O.confidence dep t))
        models)

(* The one fold kernel against the oracle's list folds: at every goal,
   with no child skipped and with each child position skipped in turn,
   [combine] must equal the oracle fold over the children's values with
   that child removed, bit for bit, for both combinators and every
   model.  Skipping under Frechet_lower on an All goal is where the
   n - 1 count goes wrong if the kernel counts the skipped child. *)
let test_skip_kernel_property =
  qcheck ~count:150 "combine ~skip == oracle fold without that child, bitwise"
    gen_seed_depth (fun (seed, depth) ->
      let g = G.of_node (random_tree (rng_of_seed seed) ~depth) in
      List.for_all
        (fun (_, dep) ->
          ignore (G.propagate dep g);
          let vals = G.values g in
          let ok = ref true in
          for i = 0 to G.size g - 1 do
            let fold =
              match G.kind_of g i with
              | G.Evidence -> None
              | G.All_goal -> Some O.and_combine
              | G.Any_goal -> Some O.or_combine
            in
            match fold with
            | None -> ()
            | Some fold ->
              let kids = Array.to_list (G.children g i) |> List.map (G.value g) in
              if not (same_bits (G.combine dep g i vals) (fold dep kids)) then
                ok := false;
              List.iteri
                (fun k _ ->
                  let rest = List.filteri (fun j _ -> j <> k) kids in
                  if
                    not
                      (same_bits (G.combine ~skip:k dep g i vals) (fold dep rest))
                  then ok := false;
                  (* The probe is that fold, times the validity, against
                     the stored value. *)
                  let inert =
                    same_bits
                      (G.combine ~skip:k dep g i vals *. G.assumption_validity g i)
                      (G.value g i)
                  in
                  if G.leg_is_inert dep g i k vals <> inert then ok := false)
                kids
          done;
          !ok)
        models)

let test_skip_kernel_frechet_lower () =
  (* All of (0.9, 0.8, 0.7) under Frechet_lower: 0.4 with every child,
     0.7 without the third (two children: 0.9 + 0.8 - 1).  Counting the
     skipped child would give 0.9 + 0.8 - 2 < 0, clamped to 0. *)
  let b = G.Builder.create () in
  let kids =
    Array.map (fun c -> G.Builder.evidence b ~confidence:c ()) [| 0.9; 0.8; 0.7 |]
  in
  let g = G.Builder.build b ~root:(G.Builder.goal b ~combinator:N.All kids) in
  let dep = G.Frechet_lower in
  ignore (G.propagate dep g);
  let r = G.root g in
  check_close ~eps:1e-12 "no skip" 0.4 (G.combine dep g r (G.values g));
  check_close ~eps:1e-12 "third child skipped" 0.7
    (G.combine ~skip:2 dep g r (G.values g));
  check_raises_invalid "skip out of range" (fun () ->
      ignore (G.combine ~skip:3 dep g r (G.values g)));
  check_raises_invalid "not a goal" (fun () ->
      ignore (G.combine dep g kids.(0) (G.values g)));
  check_true "a leg that moves the value is not inert"
    (not (G.leg_is_inert dep g r 2 (G.values g)));
  (* Under Frechet_upper an All goal is the min: 0.9 cannot move it. *)
  ignore (G.propagate G.Frechet_upper g);
  check_true "a dominated leg is inert" (G.leg_is_inert G.Frechet_upper g r 0 (G.values g));
  check_true "the min leg is not" (not (G.leg_is_inert G.Frechet_upper g r 2 (G.values g)));
  check_raises_invalid "probe position out of range" (fun () ->
      ignore (G.leg_is_inert dep g r 3 (G.values g)));
  check_raises_invalid "probe on evidence" (fun () ->
      ignore (G.leg_is_inert dep g kids.(0) 0 (G.values g)))

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
        t := O.what_if !t ~id:(G.id_of g i) ~confidence:c;
        let inc = G.refresh dep g in
        (* The incremental value must match both a full re-propagation of
           the same graph and the boxed-tree reference, bit for bit. *)
        if not (same_bits inc (O.confidence dep !t)) then ok := false;
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
  let t' = O.what_if_assumption t ~id:"a0" ~p_valid:0.6 in
  G.set_assumption g ~id:"a0" ~p_valid:0.6;
  let inc = G.refresh dep g in
  check_true "assumption edit matches boxed tree"
    (same_bits inc (O.confidence dep t'));
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
  let dag_01 = Gen.case ~seed:9 ~legs:3 ~fanout:4 ~depth:3 ~shared:0.1 () in
  (* 9000 leaves: a level wide enough for propagate_par to split it over
     the pool rather than evaluate it inline. *)
  let wide = Gen.case ~seed:9 ~legs:9 ~fanout:10 ~depth:3 () in
  let wide_dag = Gen.case ~seed:9 ~legs:9 ~fanout:10 ~depth:3 ~shared:0.1 () in
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
    [ ("tree", tree); ("dag", dag); ("dag 0.1", dag_01); ("wide tree", wide);
      ("wide dag 0.1", wide_dag) ]

(* An edit storm through the incremental engine on generated cases: a
   refresh after every random leaf edit, then the last refreshed root
   must equal a from-scratch propagation of the edited graph, bitwise.
   The leaf band sits tight under 1.0 so the AND products stay far from
   0.0, where the engine's bitwise early cut-off would skip real work. *)
let test_edit_storm () =
  let leaf = (0.999998, 0.9999999) in
  List.iter
    (fun (name, shared) ->
      let g = Gen.case ~seed:11 ~legs:9 ~fanout:10 ~depth:3 ~shared ~leaf () in
      let leaves = G.evidence_indices g in
      let rng = rng_of_seed 12 in
      List.iter
        (fun (mname, dep) ->
          ignore (G.propagate dep g);
          let last = ref nan in
          for _ = 1 to 500 do
            let i = leaves.(Numerics.Rng.int rng (Array.length leaves)) in
            G.set_evidence g i (Numerics.Rng.uniform rng (fst leaf) (snd leaf));
            last := G.refresh dep g
          done;
          check_true
            (Printf.sprintf "%s/%s storm root == full propagate" name mname)
            (same_bits !last (G.propagate dep g)))
        models)
    [ ("tree", 0.0); ("dag 0.1", 0.1) ]

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

(* The id table grows past its size hint, and works far below one:
   every id interned is still found, still a duplicate when repeated,
   and an unknown id is not found. *)
let test_id_table_resizing () =
  let leaves b n =
    Array.init n (fun i ->
        G.Builder.evidence b ~id:(Printf.sprintf "E%d" i) ~confidence:0.9 ())
  in
  let b = G.Builder.create ~capacity:2 ~ids:1 () in
  ignore (leaves b 5_000);
  check_raises_invalid "duplicate after growth" (fun () ->
      ignore (G.Builder.evidence b ~id:"E17" ~confidence:0.9 ()));
  List.iter
    (fun (ids, n) ->
      let b = G.Builder.create ~capacity:2 ~ids () in
      let leaves = leaves b n in
      let r = G.Builder.goal b ~id:"G" ~combinator:N.All leaves in
      let g = G.Builder.build b ~root:r in
      check_true "every id found"
        (Array.for_all (fun i -> G.find g (Printf.sprintf "E%d" i) = Some i) leaves);
      Alcotest.(check (option int)) "root found" (Some r) (G.find g "G");
      Alcotest.(check (option int)) "unknown id" None (G.find g (Printf.sprintf "E%d" n)))
    [ (1, 5_000); (100_000, 40) ]

(* [Intern] under a hash with few values, so most probes meet equal
   hashes of unequal keys, from a size hint of 1, so the table grows
   several times: it interns each key to its first position, as a
   [Hashtbl] of first positions does, and finds exactly those. *)
let test_intern_property =
  qcheck ~count:200 "Intern = first-position Hashtbl, colliding hashes"
    QCheck2.Gen.(pair (int_range 1 7) (list_size (int_range 0 300) (int_range 0 60)))
    (fun (buckets, keys) ->
      let keys = Array.of_list keys in
      let t = Casekit.Intern.create 1 and first = Hashtbl.create 16 in
      let hash x = x mod buckets in
      Array.for_all
        (fun x -> x)
        (Array.mapi
           (fun k x ->
             let got = Casekit.Intern.intern t (hash x) (fun j -> keys.(j) = x) k in
             let want = Option.value (Hashtbl.find_opt first x) ~default:k in
             if want = k then Hashtbl.add first x k;
             got = want)
           keys)
      && List.for_all
           (fun x ->
             Casekit.Intern.find t (hash x) (fun j -> keys.(j) = x)
             = Option.value (Hashtbl.find_opt first x) ~default:(-1))
           (List.init 62 Fun.id))

(* The sensitivity rankings run on the incremental engine; this pins
   them to their definition — a central difference of the oracle's
   re-evaluation of the edited tree — within 1e-12, and pins their order:
   evidence in index order (the tree's leaves left to right), assumptions
   in preorder with each goal's ahead of its children's. *)
let tree_central_difference f current =
  let h = 1e-4 in
  let lo = max 1e-6 (current -. h) and hi = min 1.0 (current +. h) in
  (f hi -. f lo) /. (hi -. lo)

let test_sensitivities_match_tree_path () =
  let t = random_tree (rng_of_seed 11) ~depth:3 in
  let assumptions =
    List.rev
      (N.fold
         (fun acc n ->
           match n with
           | N.Goal g -> List.rev_append g.assumptions acc
           | N.Evidence _ -> acc)
         [] t)
  in
  List.iter
    (fun (mname, dep) ->
      let g = G.of_node t in
      let sens = G.leaf_sensitivities dep g in
      let leaves = N.leaves t in
      Alcotest.(check (list string))
        (mname ^ " evidence in index order")
        (List.map N.id leaves) (List.map fst sens);
      List.iter2
        (fun leaf (id, s) ->
          match leaf with
          | N.Evidence { confidence; _ } ->
            let expected =
              tree_central_difference
                (fun x -> O.confidence dep (O.what_if t ~id ~confidence:x))
                confidence
            in
            check_close ~eps:1e-12
              (Printf.sprintf "%s leaf %s sensitivity" mname id)
              expected s
          | N.Goal _ -> ())
        leaves sens;
      let asens = G.assumption_sensitivities dep g in
      Alcotest.(check (list string))
        (mname ^ " assumptions in preorder")
        (List.map (fun (a : N.assumption) -> a.aid) assumptions)
        (List.map fst asens);
      List.iter2
        (fun (a : N.assumption) (_, s) ->
          let expected =
            tree_central_difference
              (fun x ->
                O.confidence dep (O.what_if_assumption t ~id:a.aid ~p_valid:x))
              a.p_valid
          in
          check_close ~eps:1e-12
            (Printf.sprintf "%s assumption %s sensitivity" mname a.aid)
            expected s)
        assumptions asens;
      check_true (mname ^ " inputs left as they were")
        (G.to_node g = t
        && same_bits (G.value g (G.root g)) (O.confidence dep t)))
    models

(* --- derived structure on first use -------------------------------------------

   A built graph derives its parent CSR, level schedule, dirty maps and
   hash column only when something first needs them.  [Graph_oracle]
   derives them all eagerly, as the build used to.  Whatever the graph
   is asked first, every answer must equal the oracle's bit for bit. *)

module GO = Graph_oracle

(* A random graph from [seed]: [`Tree] gives every node at most one
   parent, [`Dag] lets goals share children (and list one twice), both
   with [any] goals and assumptions; [`Single] is one leaf. *)
let random_graph ~seed ~size shape =
  let rng = rng_of_seed seed in
  let b = G.Builder.create () in
  let conf () = Numerics.Rng.uniform rng 0.5 1.0 in
  match shape with
  | `Single -> G.Builder.build b ~root:(G.Builder.evidence b ~confidence:(conf ()) ())
  | (`Tree | `Dag) as shape ->
    (* [open_] holds the nodes no goal has taken yet. *)
    let open_ = ref [] and emitted = ref 0 and assumption = ref 0 in
    let emit i =
      incr emitted;
      open_ := i :: !open_;
      i
    in
    ignore (emit (G.Builder.evidence b ~confidence:(conf ()) ()));
    for _ = 2 to size do
      if Numerics.Rng.bernoulli rng 0.55 then
        ignore (emit (G.Builder.evidence b ~confidence:(conf ()) ()))
      else begin
        let k = 1 + Numerics.Rng.int rng 4 in
        let kids =
          match shape with
          | `Dag -> Array.init k (fun _ -> Numerics.Rng.int rng !emitted)
          | `Tree ->
            let pool = Array.of_list !open_ in
            let take = min k (Array.length pool) in
            let kids = Array.sub pool 0 take in
            open_ := Array.to_list (Array.sub pool take (Array.length pool - take));
            kids
        in
        let combinator = if Numerics.Rng.bernoulli rng 0.5 then N.Any else N.All in
        let assumptions =
          if Numerics.Rng.bernoulli rng 0.2 then begin
            incr assumption;
            [ { N.aid = Printf.sprintf "A%d" !assumption; a_statement = "";
                p_valid = Numerics.Rng.uniform rng 0.9 1.0 } ]
          end
          else []
        in
        if shape = `Dag then
          open_ := List.filter (fun i -> not (Array.mem i kids)) !open_;
        ignore (emit (G.Builder.goal b ~assumptions ~combinator kids))
      end
    done;
    let tops = Array.of_list (List.rev !open_) in
    let root =
      if Array.length tops = 1 then tops.(0)
      else G.Builder.goal b ~combinator:N.Any tops
    in
    G.Builder.build b ~root

type first_use = Edit | Hash | Spof | Parents | Par of int

let name_of = function
  | Edit -> "edit"
  | Hash -> "structural_hash"
  | Spof -> "spof_evidence"
  | Parents -> "parents"
  | Par d -> Printf.sprintf "propagate_par at %d domains" d

let same_values what g values =
  Array.iteri
    (fun i v ->
      if not (same_bits (G.value g i) v) then
        Alcotest.failf "%s: value of node %d differs from the eager build" what i)
    values

(* Run [uses] in order on [g], checking each against the oracle [o]
   (whose base confidences follow the edits), then every derived
   structure. *)
let against_oracle ~pools ~seed dep g uses =
  let o = GO.of_graph g in
  let rng = rng_of_seed seed in
  let leaves = G.evidence_indices g in
  List.iter
    (fun use ->
      let what = name_of use in
      match use with
      | Edit ->
        let i = leaves.(Numerics.Rng.int rng (Array.length leaves)) in
        let c = Numerics.Rng.uniform rng 0.5 1.0 in
        G.set_evidence g i c;
        o.GO.base.(i) <- c;
        let root = G.refresh dep g in
        let values = GO.propagate o dep in
        check_true (what ^ ": root") (same_bits root values.(o.GO.root));
        same_values what g values
      | Hash ->
        let hashes = GO.hashes o in
        Array.iteri
          (fun i h ->
            if not (Int64.equal (G.structural_hash g i) h) then
              Alcotest.failf "%s: hash of node %d differs" what i)
          hashes;
        check_true (what ^ ": root hash") (Int64.equal (G.root_hash g) hashes.(o.GO.root))
      | Spof -> check_true what (G.spof_evidence g = GO.spof_evidence o)
      | Parents ->
        for i = 0 to o.GO.n - 1 do
          if G.parents g i <> GO.parents o i || G.parent_count g i <> Array.length (GO.parents o i)
          then Alcotest.failf "%s: parents of node %d differ" what i
        done
      | Par d ->
        let values = GO.propagate_levels o dep in
        let root = G.propagate_par ~pool:(List.assoc d pools) ~chunks:64 dep g in
        check_true (what ^ ": root") (same_bits root values.(o.GO.root));
        same_values what g values)
    uses;
  check_true "is_tree" (G.is_tree g = GO.is_tree o);
  check_true "levels" (G.levels g = o.GO.height);
  check_true "max_overlap" (same_bits (G.max_overlap g) (GO.max_overlap o));
  for i = 0 to o.GO.n - 1 do
    if not (same_bits (G.overlap_fraction g i) o.GO.overlap.(i)) then
      Alcotest.failf "overlap of node %d differs" i
  done;
  let lo, hi = G.propagate_bounds dep g in
  let olo, ohi = GO.bounds o dep in
  Array.iteri
    (fun i l ->
      if not (same_bits (Numerics.Columns.get lo i) l && same_bits (Numerics.Columns.get hi i) ohi.(i))
      then Alcotest.failf "bounds of node %d differ" i)
    olo;
  check_true "propagate" (same_bits (G.propagate dep g) (GO.propagate o dep).(o.GO.root));
  same_values "propagate" g (GO.propagate o dep)

let all_uses = [ Edit; Hash; Spof; Parents; Par 1; Par 2; Par 4 ]

let with_pools f =
  Numerics.Parallel.with_pool ~num_domains:1 (fun p1 ->
      Numerics.Parallel.with_pool ~num_domains:2 (fun p2 ->
          Numerics.Parallel.with_pool ~num_domains:4 (fun p4 ->
              f [ (1, p1); (2, p2); (4, p4) ])))

(* Random graphs, models and orders of first use. *)
let test_lazy_property () =
  let open QCheck2.Gen in
  let gen =
    let* seed = int_bound 1_000_000
    and* shape = oneofl [ `Tree; `Dag; `Dag; `Single; `Generated ]
    and* size = int_range 1 60
    and* model = int_bound (List.length models - 1)
    and* uses = shuffle_l (Edit :: all_uses) in
    pure (seed, shape, size, model, uses)
  in
  let print (seed, shape, size, model, uses) =
    Printf.sprintf "seed %d, %s of %d, %s, %s" seed
      (match shape with `Tree -> "tree" | `Dag -> "dag" | `Single -> "single" | `Generated -> "generated dag")
      size (fst (List.nth models model))
      (String.concat ", " (List.map name_of uses))
  in
  with_pools (fun pools ->
      QCheck2.Test.check_exn
        (QCheck2.Test.make ~count:150 ~name:"lazy graph == eager oracle" ~print gen
           (fun (seed, shape, size, model, uses) ->
             let g =
               match shape with
               | `Generated -> Gen.case ~seed ~legs:3 ~fanout:3 ~depth:3 ~shared:0.3 ()
               | (`Tree | `Dag | `Single) as shape -> random_graph ~seed ~size shape
             in
             against_oracle ~pools ~seed (snd (List.nth models model)) g uses;
             true)))

(* Each structure built first, on graphs wide enough for propagate_par
   to fan out (9000 leaves), one with shared evidence, and a 10^5-node
   chain. *)
let test_lazy_first_uses () =
  let chain () =
    let b = G.Builder.create ~capacity:100_000 () in
    let i = ref (G.Builder.evidence b ~confidence:0.999 ()) in
    for k = 2 to 100_000 do
      i := G.Builder.goal b ~combinator:(if k mod 2 = 0 then N.All else N.Any) [| !i |]
    done;
    G.Builder.build b ~root:!i
  in
  let graphs =
    [ ("wide tree", fun () -> Gen.case ~seed:5 ~legs:9 ~fanout:10 ~depth:3 ());
      ("wide dag", fun () -> Gen.case ~seed:5 ~legs:9 ~fanout:10 ~depth:3 ~shared:0.1 ());
      ("chain", chain) ]
  in
  with_pools (fun pools ->
      List.iter
        (fun (gname, make) ->
          List.iter
            (fun first ->
              let rest = List.filter (fun u -> u <> first) all_uses in
              try against_oracle ~pools ~seed:7 (G.Correlated 0.37) (make ()) (first :: rest)
              with e ->
                Alcotest.failf "%s, %s first: %s" gname (name_of first) (Printexc.to_string e))
            all_uses)
        graphs)

(* The generator fills children through one reused array; the graph is
   the one an array per goal gave, draw for draw. *)
let test_generator_reuses_children () =
  List.iter
    (fun shared ->
      let g = Gen.case ~seed:13 ~legs:4 ~fanout:5 ~depth:4 ~shared ()
      and o = GO.generate ~seed:13 ~legs:4 ~fanout:5 ~depth:4 ~shared () in
      check_true "size" (G.size g = G.size o);
      check_true "root hash" (Int64.equal (G.root_hash g) (G.root_hash o));
      List.iter
        (fun (mname, dep) ->
          ignore (G.propagate dep g);
          ignore (G.propagate dep o);
          for i = 0 to G.size g - 1 do
            if not (same_bits (G.value g i) (G.value o i)) then
              Alcotest.failf "shared %g, %s: node %d" shared mname i
          done)
        models)
    [ 0.0; 0.1 ]

let suite =
  [ case "DAG overlap fraction" test_dag_overlap;
    case "correlation floored at overlap" test_dag_correlation_floor;
    case "DAG incremental refresh" test_dag_incremental;
    case "tree bridge round-trip" test_round_trip;
    case "assumption edit identity" test_assumption_edit_identity;
    case "parallel bit-identity (1/2/4 domains)" test_parallel_identity;
    case "edit storm == full propagate" test_edit_storm;
    case "generator determinism and node counts" test_generator;
    case "generator edge knobs (legs=1, depth=1, shared=1)"
      test_generator_edge_knobs;
    case "edit and builder validation" test_edit_validation;
    case "one id namespace for nodes and assumptions" test_id_namespace;
    case "the id table grows past its size hint" test_id_table_resizing;
    test_intern_property;
    test_children_before_parents_property;
    case "sensitivities match the boxed-tree path" test_sensitivities_match_tree_path;
    case "skip kernel counts the remaining children" test_skip_kernel_frechet_lower;
    test_bitwise_identity_property;
    test_skip_kernel_property;
    test_incremental_identity_property;
    test_edit_order_convergence_property;
    case "lazy graph == eager oracle, random graphs and orders" test_lazy_property;
    case "lazy graph == eager oracle, each structure first" test_lazy_first_uses;
    case "generator reuses one child array, draw for draw" test_generator_reuses_children ]
