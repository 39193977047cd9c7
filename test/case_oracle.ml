(* Reference implementations the differential tests compare against.

   The tree evaluator: confidence as a recursive [List] fold over a boxed
   [Node.t] tree, with the what-if edits that rebuild the tree.  It is
   the textbook reading of the propagation semantics, and
   [Graph.propagate] (with [Graph.combine] under it) must reproduce its
   bits on every tree and dependence model.

   The case-document pipeline as it was before the one-pass loader, kept
   as the differential oracle for it:

   - [parse_raw]: the lexer that split the text into a line list, trimmed
     each line to filter blanks and comments, then tokenised it;
   - [print]: the printer that made a string per line;
   - [parse]: the recursive-descent strict parser that built a [Node.t]
     tree from the raw lines (duplicate ids checked first, then
     [Node.validate]);
   - [check_raw]: the lint over a forest of boxed nodes built from the
     raw lines, with the shape rules as recursive folds over it, and
     [shared_evidence], the list-based C009 rule over that forest,
     re-normalising and re-hashing every statement once per enclosing
     [any] goal;
   - [case_rules_check], [audit_case], [check_case]: the compositions
     [Case_rules.check], [Audit.case] and [Check.case] made of those
     parts, each lexing the document separately. *)

module F = Casekit.Case_format
module N = Casekit.Node
module G = Casekit.Graph
module D = Analysis.Diagnostic

(* --- tree evaluator ---------------------------------------------------------- *)

let check_conf c =
  if not (c >= 0.0 && c <= 1.0) then
    invalid_arg "Case_oracle: confidence out of [0,1]"

let check_rho rho =
  if not (rho >= 0.0 && rho <= 1.0) then
    invalid_arg "Case_oracle: rho out of [0,1]"

let and_independent = List.fold_left ( *. ) 1.0
let and_comonotone confidences = List.fold_left min 1.0 confidences

let and_frechet_lower confidences =
  let n = float_of_int (List.length confidences) in
  let s = List.fold_left ( +. ) 0.0 confidences in
  max 0.0 (s -. (n -. 1.0))

let or_independent confidences =
  1.0 -. List.fold_left (fun acc c -> acc *. (1.0 -. c)) 1.0 confidences

let or_comonotone confidences = List.fold_left max 0.0 confidences

let or_frechet_upper confidences =
  min 1.0 (List.fold_left ( +. ) 0.0 confidences)

(* P(all hold) for the given marginal confidences. *)
let and_combine dependence confidences =
  List.iter check_conf confidences;
  match dependence with
  | G.Independent -> and_independent confidences
  | G.Frechet_lower -> and_frechet_lower confidences
  | G.Frechet_upper -> and_comonotone confidences
  | G.Correlated rho ->
    check_rho rho;
    ((1.0 -. rho) *. and_independent confidences)
    +. (rho *. and_comonotone confidences)

(* P(at least one holds). *)
let or_combine dependence confidences =
  List.iter check_conf confidences;
  match dependence with
  | G.Independent -> or_independent confidences
  | G.Frechet_lower -> or_comonotone confidences
  | G.Frechet_upper -> or_frechet_upper confidences
  | G.Correlated rho ->
    check_rho rho;
    ((1.0 -. rho) *. or_independent confidences)
    +. (rho *. or_comonotone confidences)

let assumption_factor assumptions =
  List.fold_left (fun acc (a : N.assumption) -> acc *. a.p_valid) 1.0
    assumptions

let rec confidence dependence node =
  match node with
  | N.Evidence e -> e.confidence
  | N.Goal g ->
    let child_confidences = List.map (confidence dependence) g.supported_by in
    let combined =
      match g.combinator with
      | N.All -> and_combine dependence child_confidences
      | N.Any -> or_combine dependence child_confidences
    in
    combined *. assumption_factor g.assumptions

(* The same case with evidence [id] at a new confidence.
   @raise Not_found if no evidence has that id. *)
let what_if node ~id ~confidence:new_confidence =
  let found = ref false in
  let rec go = function
    | N.Evidence e when e.id = id ->
      found := true;
      N.evidence ~id:e.id ~statement:e.statement ~confidence:new_confidence
    | N.Evidence _ as leaf -> leaf
    | N.Goal g -> N.Goal { g with supported_by = List.map go g.supported_by }
  in
  let updated = go node in
  if not !found then raise Not_found;
  updated

(* The same case with assumption [id] at a new validity.
   @raise Not_found if no assumption has that id. *)
let what_if_assumption node ~id ~p_valid:new_p =
  let found = ref false in
  let rec go = function
    | N.Evidence _ as leaf -> leaf
    | N.Goal g ->
      let assumptions =
        List.map
          (fun (a : N.assumption) ->
            if a.aid = id then begin
              found := true;
              { a with p_valid = new_p }
            end
            else a)
          g.assumptions
      in
      N.Goal { g with assumptions; supported_by = List.map go g.supported_by }
  in
  let updated = go node in
  if not !found then raise Not_found;
  updated

(* --- case-document pipeline ------------------------------------------------- *)

let fail ?(col = 1) ?(token = "") line message =
  raise (F.Parse_error { line; col; token; message })

(* --- lexer ---------------------------------------------------------------- *)

let indent_of line_no raw =
  let rec count i =
    if i < String.length raw && raw.[i] = ' ' then count (i + 1) else i
  in
  let spaces = count 0 in
  if spaces mod 2 <> 0 then
    fail ~col:(spaces + 1) line_no "odd indentation (use 2 spaces)";
  spaces / 2

let split_parts line_no s =
  let n = String.length s in
  let rec skip_spaces i = if i < n && s.[i] = ' ' then skip_spaces (i + 1) else i in
  let word_end i =
    let rec go j = if j < n && s.[j] <> ' ' then go (j + 1) else j in
    go i
  in
  let i0 = skip_spaces 0 in
  let i1 = word_end i0 in
  if i0 = i1 then fail ~col:(i0 + 1) line_no "empty line slipped through";
  let kind = String.sub s i0 (i1 - i0) in
  let i2 = skip_spaces i1 in
  let i3 = word_end i2 in
  if i2 = i3 then fail ~col:(i2 + 1) line_no "missing node id";
  let id = String.sub s i2 (i3 - i2) in
  let i4 = skip_spaces i3 in
  if i4 >= n || s.[i4] <> '"' then
    fail ~col:(i4 + 1)
      ~token:(String.sub s i4 (word_end i4 - i4))
      line_no "expected a quoted statement";
  let rec find_close j =
    if j >= n then
      fail ~col:(i4 + 1) ~token:(String.sub s i4 (n - i4)) line_no
        "unterminated statement quote"
    else if s.[j] = '"' then j
    else find_close (j + 1)
  in
  let close = find_close (i4 + 1) in
  let statement = String.sub s (i4 + 1) (close - i4 - 1) in
  let i5 = skip_spaces (close + 1) in
  let rest = String.trim (String.sub s (close + 1) (n - close - 1)) in
  ((kind, i0 + 1), (id, i2 + 1), statement, (rest, i5 + 1))

let parse_line number raw : F.raw_node =
  let indent = indent_of number raw in
  let (kind, kind_col), (id, id_col), statement, (rest, rest_col) =
    split_parts number raw
  in
  let value_col = if rest = "" then id_col else rest_col in
  let item =
    match kind with
    | "goal" ->
      let combinator =
        match rest with
        | "all" | "" -> N.All
        | "any" -> N.Any
        | other ->
          fail ~col:rest_col ~token:other number
            (Printf.sprintf "unknown combinator %S" other)
      in
      F.Raw_goal { combinator }
    | "evidence" -> (
      match float_of_string_opt rest with
      | Some confidence -> F.Raw_evidence { confidence }
      | None ->
        fail ~col:value_col ~token:rest number
          (if rest = "" then "evidence needs a confidence value"
           else Printf.sprintf "evidence needs a confidence value, got %S" rest))
    | "assume" -> (
      match float_of_string_opt rest with
      | Some p_valid -> F.Raw_assume { p_valid }
      | None ->
        fail ~col:value_col ~token:rest number
          (if rest = "" then "assume needs a validity probability"
           else
             Printf.sprintf "assume needs a validity probability, got %S" rest))
    | other ->
      fail ~col:kind_col ~token:other number
        (Printf.sprintf "unknown node kind %S" other)
  in
  { line = number; indent; id; id_col; statement; value_col; item }

let parse_raw text =
  String.split_on_char '\n' text
  |> List.mapi (fun i raw -> (i + 1, raw))
  |> List.filter (fun (_, raw) ->
         let t = String.trim raw in
         t <> "" && not (String.length t > 0 && t.[0] = '#'))
  |> List.map (fun (number, raw) -> parse_line number raw)

(* --- printer ------------------------------------------------------------------

   [Case_format.print] as it was before it wrote into one buffer: a
   [sprintf] per line and a padding string per depth.  Documents it can
   print are checked by the library printer; it checks nothing. *)

let print node =
  let buf = Buffer.create 256 in
  let pad depth = String.make (2 * depth) ' ' in
  let rec go depth = function
    | N.Evidence e ->
      Buffer.add_string buf
        (Printf.sprintf "%sevidence %s \"%s\" %.17g\n" (pad depth) e.id e.statement
           e.confidence)
    | N.Goal g ->
      let comb = match g.combinator with N.All -> "all" | N.Any -> "any" in
      Buffer.add_string buf
        (Printf.sprintf "%sgoal %s \"%s\" %s\n" (pad depth) g.id g.statement comb);
      List.iter
        (fun (a : N.assumption) ->
          Buffer.add_string buf
            (Printf.sprintf "%sassume %s \"%s\" %.17g\n" (pad (depth + 1)) a.aid
               a.a_statement a.p_valid))
        g.assumptions;
      List.iter (go (depth + 1)) g.supported_by
  in
  go 0 node;
  Buffer.contents buf

(* --- strict parser ---------------------------------------------------------- *)

let rec build_children parent_indent (nodes : F.raw_node list) =
  match nodes with
  | [] -> ([], [], [])
  | rn :: _ when rn.indent <= parent_indent -> ([], [], nodes)
  | rn :: rest -> (
    if rn.indent > parent_indent + 1 then
      fail ~col:(2 * rn.indent) rn.line "indentation jumps more than one level";
    match rn.item with
    | F.Raw_assume { p_valid } ->
      let assumption =
        try N.assumption ~id:rn.id ~statement:rn.statement ~p_valid
        with Invalid_argument msg -> fail ~col:rn.value_col rn.line msg
      in
      let assumptions, children, remaining = build_children parent_indent rest in
      (assumption :: assumptions, children, remaining)
    | F.Raw_evidence { confidence } ->
      let node =
        try N.evidence ~id:rn.id ~statement:rn.statement ~confidence
        with Invalid_argument msg -> fail ~col:rn.value_col rn.line msg
      in
      let assumptions, children, remaining = build_children parent_indent rest in
      (assumptions, node :: children, remaining)
    | F.Raw_goal { combinator } ->
      let assumptions_in, children_in, after_subtree =
        build_children rn.indent rest
      in
      let node =
        try
          N.goal ~id:rn.id ~statement:rn.statement ~combinator
            ~assumptions:assumptions_in children_in
        with Invalid_argument msg -> fail ~col:rn.id_col rn.line msg
      in
      let assumptions, children, remaining =
        build_children parent_indent after_subtree
      in
      (assumptions, node :: children, remaining))

let check_duplicate_ids (nodes : F.raw_node list) =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (rn : F.raw_node) ->
      match Hashtbl.find_opt seen rn.id with
      | Some first ->
        fail ~col:rn.id_col ~token:rn.id rn.line
          (Printf.sprintf "duplicate id %s (first declared at line %d)" rn.id
             first)
      | None -> Hashtbl.add seen rn.id rn.line)
    nodes

let parse text =
  let nodes = parse_raw text in
  match nodes with
  | [] -> fail 0 "empty case"
  | root :: _ when root.indent <> 0 ->
    fail ~col:1 root.line "root must not be indented"
  | root :: rest -> (
    check_duplicate_ids nodes;
    match root.item with
    | F.Raw_goal { combinator } -> (
      let assumptions, children, remaining = build_children 0 rest in
      match remaining with
      | extra :: _ -> fail ~col:extra.id_col extra.line "multiple root nodes"
      | [] ->
        let node =
          try
            N.goal ~id:root.id ~statement:root.statement ~combinator
              ~assumptions children
          with Invalid_argument msg -> fail ~col:root.id_col root.line msg
        in
        N.validate node;
        node)
    | F.Raw_evidence { confidence } -> (
      if rest <> [] then
        fail ~col:(List.hd rest).id_col (List.hd rest).line
          "content after evidence root";
      try N.evidence ~id:root.id ~statement:root.statement ~confidence
      with Invalid_argument msg -> fail ~col:root.value_col root.line msg)
    | F.Raw_assume _ ->
      fail ~col:root.id_col ~token:root.id root.line
        "an assumption cannot be the root")

(* --- the lint over the lenient forest ------------------------------------------

   [Case_rules] as it was before its rules became sweeps over one array:
   a forest of boxed nodes, each line under the nearest enclosing
   shallower non-assumption line, with the shape rules as recursive
   folds over it. *)

type tree = { rn : F.raw_node; mutable kids : tree list (* reversed *) }

let is_assume (rn : F.raw_node) =
  match rn.item with F.Raw_assume _ -> true | _ -> false

(* The forest, and the structural diagnostics (C006, C010, C011, C012)
   found while building it. *)
let build_forest (nodes : F.raw_node list) =
  let diags = ref [] in
  let emit ~code ~severity ~line ?col msg =
    diags := D.make ~code ~severity ~line ?col msg :: !diags
  in
  let roots = ref [] and stack = ref [] in
  List.iteri
    (fun i (rn : F.raw_node) ->
      let rec pop () =
        match !stack with
        | top :: rest when top.rn.indent >= rn.indent ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      let t = { rn; kids = [] } in
      (match !stack with
      | [] ->
        if !roots <> [] then
          emit ~code:"C011" ~severity:D.Error ~line:rn.line ~col:rn.id_col
            (Printf.sprintf
               "node %s is a second root: a case document holds one argument"
               rn.id)
        else if i = 0 && rn.indent > 0 then
          emit ~code:"C010" ~severity:D.Error ~line:rn.line
            "root must not be indented";
        if is_assume rn then
          emit ~code:"C006" ~severity:D.Error ~line:rn.line ~col:rn.id_col
            (Printf.sprintf
               "assumption %s is attached to no goal (it is at top level)" rn.id);
        roots := t :: !roots
      | parent :: _ ->
        if rn.indent > parent.rn.indent + 1 then
          emit ~code:"C010" ~severity:D.Error ~line:rn.line
            (Printf.sprintf "indentation jumps more than one level (%d to %d)"
               parent.rn.indent rn.indent);
        (match parent.rn.item with
        | F.Raw_evidence _ ->
          if is_assume rn then
            emit ~code:"C006" ~severity:D.Error ~line:rn.line ~col:rn.id_col
              (Printf.sprintf
                 "assumption %s is attached to evidence %s, not a goal" rn.id
                 parent.rn.id)
          else
            emit ~code:"C012" ~severity:D.Error ~line:rn.line ~col:rn.id_col
              (Printf.sprintf "evidence %s cannot support child %s"
                 parent.rn.id rn.id)
        | _ -> ());
        if not (is_assume rn) then parent.kids <- t :: parent.kids);
      if not (is_assume rn) then stack := t :: !stack)
    nodes;
  (List.rev !roots, List.rev !diags)

let forest nodes = fst (build_forest nodes)

let check_duplicates (nodes : F.raw_node list) =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (rn : F.raw_node) ->
      match Hashtbl.find_opt seen rn.id with
      | Some first ->
        Some
          (D.make ~code:"C001" ~severity:D.Error ~line:rn.line ~col:rn.id_col
             (Printf.sprintf "duplicate node id %s (first declared at line %d)"
                rn.id first))
      | None ->
        Hashtbl.add seen rn.id rn.line;
        None)
    nodes

let check_values (nodes : F.raw_node list) =
  List.concat_map
    (fun (rn : F.raw_node) ->
      let value =
        match rn.item with
        | F.Raw_evidence { confidence } -> Some ("confidence", confidence)
        | F.Raw_assume { p_valid } -> Some ("validity probability", p_valid)
        | F.Raw_goal _ -> None
      in
      match value with
      | None -> []
      | Some (what, v) ->
        if not (v > 0.0 && v <= 1.0) then
          [ D.make ~code:"C002" ~severity:D.Error ~line:rn.line ~col:rn.value_col
              (Printf.sprintf "%s %g of %s is outside (0,1]" what v rn.id) ]
        else if v = 1.0 then
          [ D.make ~code:"C003" ~severity:D.Warning ~line:rn.line
              ~col:rn.value_col
              (Printf.sprintf
                 "%s 1.0 of %s claims certainty; the paper's point is that \
                  doubt never vanishes — use a value below 1"
                 what rn.id) ]
        else [])
    nodes

let max_fan_out = Analysis.Case_rules.max_fan_out
let max_depth = Analysis.Case_rules.max_depth

let rec check_shape t =
  let own =
    match t.rn.item with
    | F.Raw_goal { combinator } ->
      let n = List.length t.kids in
      if n = 0 then
        [ D.make ~code:"C004" ~severity:D.Error ~line:t.rn.line ~col:t.rn.id_col
            (Printf.sprintf "goal %s has no supporting children" t.rn.id) ]
      else if n = 1 then
        [ D.make ~code:"C005" ~severity:D.Warning ~line:t.rn.line
            ~col:t.rn.id_col
            (match combinator with
            | N.Any ->
              Printf.sprintf
                "`any` goal %s has a single leg: the alternative is vacuous"
                t.rn.id
            | N.All ->
              Printf.sprintf
                "goal %s has a single child: it adds a layer without adding \
                 an argument"
                t.rn.id) ]
      else if n > max_fan_out then
        [ D.make ~code:"C008" ~severity:D.Warning ~line:t.rn.line
            ~col:t.rn.id_col
            (Printf.sprintf
               "goal %s combines %d children (more than %d): consider \
                grouping them into subgoals"
               t.rn.id n max_fan_out) ]
      else []
    | _ -> []
  in
  own @ List.concat_map check_shape (List.rev t.kids)

let rec depth t = 1 + List.fold_left (fun acc k -> max acc (depth k)) 0 t.kids

let check_depth root =
  let d = depth root in
  if d > max_depth then
    [ D.make ~code:"C007" ~severity:D.Warning ~line:root.rn.line
        ~col:root.rn.id_col
        (Printf.sprintf
           "argument is %d levels deep (more than %d): deep chains multiply \
            doubt and are hard to review"
           d max_depth) ]
  else []

let normalise s = String.lowercase_ascii (String.trim s)

let rec evidence_leaves t =
  match t.rn.item with
  | F.Raw_evidence _ -> [ t.rn ]
  | _ -> List.concat_map evidence_leaves (List.rev t.kids)

let rec check_shared_evidence t =
  let own =
    match t.rn.item with
    | F.Raw_goal { combinator = N.Any } when List.length t.kids >= 2 ->
      let leg_leaves = List.map evidence_leaves (List.rev t.kids) in
      let first_cite = Hashtbl.create 16 in
      let distinct = ref 0 and shared = ref 0 in
      List.iteri
        (fun leg_idx leaves ->
          List.iter
            (fun (ev : F.raw_node) ->
              let key = normalise ev.statement in
              match Hashtbl.find_opt first_cite key with
              | None ->
                incr distinct;
                Hashtbl.add first_cite key (leg_idx, ev, ref false)
              | Some (first_leg, _, counted) ->
                if first_leg <> leg_idx && not !counted then begin
                  counted := true;
                  incr shared
                end)
            leaves)
        leg_leaves;
      let fraction =
        if !distinct = 0 then 0.0
        else float_of_int !shared /. float_of_int !distinct
      in
      List.concat
        (List.mapi
           (fun leg_idx leaves ->
             List.filter_map
               (fun (ev : F.raw_node) ->
                 match Hashtbl.find_opt first_cite (normalise ev.statement) with
                 | Some (first_leg, (first : F.raw_node), _)
                   when first_leg <> leg_idx ->
                   Some
                     (D.make ~code:"C009" ~severity:D.Warning ~line:ev.line
                        ~col:ev.id_col
                        ~data:[ ("overlap_fraction", fraction) ]
                        (Printf.sprintf
                           "evidence %s restates %s (line %d) from another \
                            leg of `any` goal %s: the legs are not \
                            independent, which invalidates multi-leg \
                            composition (%.0f%% of this goal's evidence \
                            is shared)"
                           ev.id first.id first.line t.rn.id
                           (100.0 *. fraction)))
                 | _ -> None)
               leaves)
           leg_leaves)
    | _ -> []
  in
  own @ List.concat_map check_shared_evidence (List.rev t.kids)

let shared_evidence nodes =
  D.sort (List.concat_map check_shared_evidence (forest nodes))

(* --- compositions ----------------------------------------------------------- *)

let with_file file diags =
  match file with Some f -> D.with_file f diags | None -> diags

(* [Case_rules.check_raw]: every rule over the lenient forest. *)
let check_raw nodes =
  let roots, structural = build_forest nodes in
  D.sort
    (structural @ check_duplicates nodes @ check_values nodes
    @ List.concat_map check_shape roots
    @ List.concat_map check_depth roots
    @ shared_evidence nodes)

let case_rules_check text =
  match parse_raw text with
  | exception F.Parse_error e ->
    [ D.make ~code:"C000" ~severity:D.Error ~line:e.line ~col:e.col e.message ]
  | [] -> [ D.make ~code:"C000" ~severity:D.Error ~line:0 "empty case document" ]
  | nodes -> check_raw nodes

let audit_case ?file ?(options = Analysis.Audit.default_options) text =
  let static = with_file file (case_rules_check text) in
  match parse text with
  | exception F.Parse_error _ -> static
  | exception Invalid_argument _ -> static
  | node ->
    let g = G.of_node node in
    let table = Hashtbl.create 64 in
    List.iter
      (fun (rn : F.raw_node) ->
        if not (Hashtbl.mem table rn.id) then
          Hashtbl.add table rn.id (rn.line, rn.id_col))
      (parse_raw text);
    let locate i =
      match G.id_of g i with "" -> None | id -> Hashtbl.find_opt table id
    in
    let options = { options with structural = false } in
    let audit = with_file file (Analysis.Audit.graph ~options ~locate g) in
    D.sort (static @ audit)

let check_case ?file text =
  let diagnostics = with_file file (case_rules_check text) in
  let value =
    match parse text with
    | node -> Some node
    | exception F.Parse_error _ -> None
    | exception Invalid_argument _ -> None
  in
  (value, diagnostics)

(* [spof_evidence g]: the kill-set pass as it was before the int pool —
   one fresh sorted array per node, a union or intersection allocated
   per child — kept as the differential oracle for [Graph.spof_evidence]. *)
let spof_evidence g =
  let union2 a b =
    let la = Array.length a and lb = Array.length b in
    if la = 0 then b
    else if lb = 0 then a
    else begin
      let out = Array.make (la + lb) 0 in
      let i = ref 0 and j = ref 0 and k = ref 0 in
      while !i < la && !j < lb do
        let x = a.(!i) and y = b.(!j) in
        if x < y then begin out.(!k) <- x; incr i end
        else if y < x then begin out.(!k) <- y; incr j end
        else begin out.(!k) <- x; incr i; incr j end;
        incr k
      done;
      while !i < la do out.(!k) <- a.(!i); incr i; incr k done;
      while !j < lb do out.(!k) <- b.(!j); incr j; incr k done;
      Array.sub out 0 !k
    end
  in
  let inter2 a b =
    List.filter (fun x -> Array.mem x b) (Array.to_list a) |> Array.of_list
  in
  let kill = Array.make (G.size g) [||] in
  for i = 0 to G.size g - 1 do
    match G.kind_of g i with
    | G.Evidence -> kill.(i) <- [| i |]
    | kind ->
      let kids = G.children g i in
      let acc = ref kill.(kids.(0)) in
      for e = 1 to Array.length kids - 1 do
        acc := (if kind = G.All_goal then union2 else inter2) !acc kill.(kids.(e))
      done;
      kill.(i) <- !acc
  done;
  kill.(G.root g)
