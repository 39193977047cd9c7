module D = Diagnostic
module G = Casekit.Graph
module Columns = Numerics.Columns

type options = {
  target : float option;
  dependence : G.dependence;
  leaf_bounds : (int -> float * float) option;
  structural : bool;
  max_per_code : int;
  max_vacuity_children : int;
}

let default_options =
  {
    target = None;
    dependence = G.Independent;
    leaf_bounds = None;
    structural = true;
    max_per_code = 20;
    max_vacuity_children = 128;
  }

let codes =
  [ ("C013", D.Error,
     "top claim unattainable: best-case evidence cannot reach the required \
      target");
    ("C014", D.Warning,
     "vacuous leg: its removal cannot change the goal's value or attainable \
      interval");
    ("C015", D.Warning,
     "over-tight assumptions: the assumption budget alone caps the root \
      below the target");
    ("C016", D.Warning,
     "single point of failure: one evidence node's refutation defeats the \
      root") ]

let dependence_name = function
  | G.Independent -> "independent"
  | G.Frechet_lower -> "frechet-lower"
  | G.Frechet_upper -> "frechet-upper"
  | G.Correlated rho -> Printf.sprintf "correlated(rho=%g)" rho

(* Node names for messages: the interned id, or the index for anonymous
   (generated) nodes. *)
let name g i =
  match G.id_of g i with "" -> Printf.sprintf "#%d" i | id -> id

(* --- capped emission --------------------------------------------------------- *)

(* A million-node conjunctive chain has a million single points of
   failure; reporting each would drown the reader and dominate the
   audit's runtime (C016 carries a sensitivity probe per finding).  The
   emitter counts every finding but materialises at most [cap] per code,
   summarising the rest in one info diagnostic.  [emit] takes a thunk so
   suppressed findings never pay for their payload. *)
type emitter = {
  mutable acc : D.t list; (* reversed *)
  counts : (string, int ref) Hashtbl.t;
  cap : int;
}

let emitter cap = { acc = []; counts = Hashtbl.create 8; cap }

let emit em code mk =
  let n =
    match Hashtbl.find_opt em.counts code with
    | Some r ->
      incr r;
      !r
    | None ->
      let r = ref 1 in
      Hashtbl.add em.counts code r;
      1
  in
  if n <= em.cap then em.acc <- mk () :: em.acc

let finish em =
  let notes =
    Hashtbl.fold
      (fun code r acc ->
        if !r > em.cap then
          D.make ~code ~severity:D.Info ~line:0
            ~data:[ ("suppressed", float_of_int (!r - em.cap)) ]
            (Printf.sprintf
               "%d further %s finding%s suppressed (cap %d per code)"
               (!r - em.cap) code
               (if !r - em.cap = 1 then "" else "s")
               em.cap)
          :: acc
        else acc)
      em.counts []
  in
  List.rev_append em.acc notes

(* --- structural pass (C005/C007/C008/C009 as CSR sweeps) --------------------- *)

let position locate i =
  match locate i with Some (line, col) -> (line, col) | None -> (0, 1)

let lint_into em ~locate g =
  let n = G.size g in
  for i = 0 to n - 1 do
    match G.kind_of g i with
    | G.Evidence -> ()
    | G.All_goal | G.Any_goal ->
      let k = G.child_count g i in
      if k = 1 then
        emit em "C005" (fun () ->
            let line, col = position locate i in
            D.make ~code:"C005" ~severity:D.Warning ~line ~col
              (match G.kind_of g i with
              | G.Any_goal ->
                Printf.sprintf
                  "`any` goal %s has a single leg: the alternative is vacuous"
                  (name g i)
              | _ ->
                Printf.sprintf
                  "goal %s has a single child: it adds a layer without \
                   adding an argument"
                  (name g i)))
      else if k > Case_rules.max_fan_out then
        emit em "C008" (fun () ->
            let line, col = position locate i in
            D.make ~code:"C008" ~severity:D.Warning ~line ~col
              (Printf.sprintf
                 "goal %s combines %d children (more than %d): consider \
                  grouping them into subgoals"
                 (name g i) k Case_rules.max_fan_out));
      (match G.kind_of g i with
      | G.Any_goal ->
        let ov = G.overlap_fraction g i in
        if ov > 0.0 then
          emit em "C009" (fun () ->
              let line, col = position locate i in
              D.make ~code:"C009" ~severity:D.Warning ~line ~col
                ~data:[ ("overlap_fraction", ov) ]
                (Printf.sprintf
                   "legs of `any` goal %s share evidence (%.0f%% of the \
                    goal's distinct evidence is cited from two or more \
                    legs): they are not independent alternatives"
                   (name g i) (100.0 *. ov)))
      | _ -> ())
  done;
  let depth = G.levels g in
  if depth > Case_rules.max_depth then
    emit em "C007" (fun () ->
        let root = G.root g in
        let line, col = position locate root in
        D.make ~code:"C007" ~severity:D.Warning ~line ~col
          (Printf.sprintf
             "argument is %d levels deep (more than %d): deep chains \
              multiply doubt and are hard to review"
             depth Case_rules.max_depth))

(* --- semantic passes ---------------------------------------------------------- *)

(* Finite-difference influence of evidence [v] on the root through the
   incremental engine; the edit is restored bitwise (same inputs, same
   recompute) before returning. *)
let sensitivity g dep v root_value =
  let c = G.base_confidence g v in
  let h = if c > 1e-5 then 1e-6 else c /. 2.0 in
  G.set_evidence g v (c -. h);
  let degraded = G.refresh dep g in
  G.set_evidence g v c;
  ignore (G.refresh dep g);
  (root_value -. degraded) /. h

let bits = Int64.bits_of_float
let same_bits a b = Int64.equal (bits a) (bits b)

let semantic_into em ~locate options g =
  let dep = options.dependence in
  let root = G.root g in
  let root_value = G.propagate dep g in
  let leaf_bounds =
    match options.leaf_bounds with Some f -> f | None -> fun _ -> (0.0, 1.0)
  in
  let lo, hi = G.propagate_bounds ~leaf_bounds dep g in
  let root_lo = Columns.get lo root and root_hi = Columns.get hi root in
  (* C013/C015: is the target attainable at all, and if not, is the
     assumption budget (rather than the evidence) what caps it? *)
  (match options.target with
  | Some target when root_hi < target ->
    emit em "C013" (fun () ->
        let line, col = position locate root in
        D.make ~code:"C013" ~severity:D.Error ~line ~col
          ~data:
            [ ("attainable_lo", root_lo);
              ("attainable_hi", root_hi);
              ("target", target) ]
          (Printf.sprintf
             "top claim %s is unattainable: best-case confidence %.6g under \
              %s is below the required target %.6g"
             (name g root) root_hi (dependence_name dep) target));
    let _, hi_na =
      G.propagate_bounds ~leaf_bounds ~with_assumptions:false dep g
    in
    let root_hi_na = Columns.get hi_na root in
    if root_hi_na >= target then
      emit em "C015" (fun () ->
          let line, col = position locate root in
          D.make ~code:"C015" ~severity:D.Warning ~line ~col
            ~data:
              [ ("attainable_hi", root_hi);
                ("attainable_hi_no_assumptions", root_hi_na);
                ("target", target) ]
            (Printf.sprintf
               "assumption validity alone caps %s below the target: without \
                the assumption discounts the argument could reach %.6g \
                (>= %.6g), with them at most %.6g"
               (name g root) root_hi_na target root_hi))
  | _ -> ());
  (* C014: a leg whose removal cannot change its goal — neither the
     propagated value nor the attainable interval, all compared bitwise.
     Goal-local invariance soundly implies root invariance (every
     combinator is monotone and deterministic). *)
  let vals = G.values g in
  let n = G.size g in
  for i = 0 to n - 1 do
    match G.kind_of g i with
    | G.Evidence -> ()
    | G.All_goal | G.Any_goal ->
      let k = G.child_count g i in
      if k >= 2 && k <= options.max_vacuity_children then
        for c = 0 to k - 1 do
          if
            same_bits
              (G.compute_excluding dep g i ~skip:c ~values:vals)
              (Columns.get vals i)
            && same_bits
                 (G.compute_excluding dep g i ~skip:c ~values:lo)
                 (Columns.get lo i)
            && same_bits
                 (G.compute_excluding dep g i ~skip:c ~values:hi)
                 (Columns.get hi i)
          then
            emit em "C014" (fun () ->
                let child = (G.children g i).(c) in
                let line, col = position locate child in
                D.make ~code:"C014" ~severity:D.Warning ~line ~col
                  ~data:[ ("goal_index", float_of_int i) ]
                  (Printf.sprintf
                     "leg %s of goal %s is vacuous under %s: removing it \
                      cannot change the propagated value or the attainable \
                      interval"
                     (name g child) (name g i) (dependence_name dep)))
        done
  done;
  (* C016: dominator/articulation evidence — a single item whose
     refutation defeats the root regardless of the rest of the case. *)
  let spofs = G.spof_evidence g in
  Array.iter
    (fun v ->
      emit em "C016" (fun () ->
          let line, col = position locate v in
          let parents = float_of_int (G.parent_count g v) in
          let parent_overlap =
            Array.fold_left
              (fun acc p -> Float.max acc (G.overlap_fraction g p))
              0.0 (G.parents g v)
          in
          D.make ~code:"C016" ~severity:D.Warning ~line ~col
            ~data:
              [ ("parent_count", parents);
                ("parent_overlap", parent_overlap);
                ("sensitivity", sensitivity g dep v root_value) ]
            (Printf.sprintf
               "evidence %s is a single point of failure: its refutation \
                alone defeats root %s (no alternative leg avoids it)"
               (name g v) (name g root))))
    spofs

let check_options options =
  (match options.target with
  | Some p when not (p > 0.0 && p <= 1.0) ->
    invalid_arg "Audit: target must be in (0,1]"
  | _ -> ());
  if options.max_per_code < 1 then
    invalid_arg "Audit: max_per_code must be >= 1"

let lint ?(options = default_options) ?(locate = fun _ -> None) g =
  check_options options;
  let em = emitter options.max_per_code in
  lint_into em ~locate g;
  D.sort (finish em)

let graph ?(options = default_options) ?(locate = fun _ -> None) g =
  check_options options;
  let em = emitter options.max_per_code in
  if options.structural then lint_into em ~locate g;
  semantic_into em ~locate options g;
  D.sort (finish em)

(* --- authored documents -------------------------------------------------------- *)

let case ?file ?(options = default_options) text =
  check_options options;
  let with_file diags =
    match file with Some f -> D.with_file f diags | None -> diags
  in
  (* One lex: the rules, the graph and the source positions all read the
     same raw lines. *)
  match Case_rules.lex text with
  | Error static -> with_file static
  | Ok raw -> (
    let static = with_file (Case_rules.check_raw raw) in
    match Casekit.Case_format.load raw with
    | exception Casekit.Case_format.Parse_error _ -> static
    | g, { lines; cols } ->
      let locate i = Some (lines.(i), cols.(i)) in
      (* Case_rules already linted the document with better positions;
         only the semantic passes are new information here. *)
      let options = { options with structural = false } in
      let audit = with_file (graph ~options ~locate g) in
      D.sort (static @ audit))
