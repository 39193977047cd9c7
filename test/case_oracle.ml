(* The case-document pipeline as it was before the one-pass loader, kept
   as the differential oracle for it:

   - [parse_raw]: the lexer that split the text into a line list, trimmed
     each line to filter blanks and comments, then tokenised it;
   - [parse]: the recursive-descent strict parser that built a [Node.t]
     tree from the raw lines (duplicate ids checked first, then
     [Node.validate]);
   - [shared_evidence]: the list-based C009 rule over the lenient forest,
     re-normalising and re-hashing every statement once per enclosing
     [any] goal;
   - [case_rules_check], [audit_case], [check_case]: the compositions
     [Case_rules.check], [Audit.case] and [Check.case] made of those
     parts, each lexing the document separately. *)

module F = Casekit.Case_format
module N = Casekit.Node
module G = Casekit.Graph
module D = Analysis.Diagnostic

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

(* --- C009 over the lenient forest -------------------------------------------- *)

type tree = { rn : F.raw_node; mutable kids : tree list (* reversed *) }

let is_assume (rn : F.raw_node) =
  match rn.item with F.Raw_assume _ -> true | _ -> false

(* The forest [Case_rules] attaches lines to: each line under the nearest
   enclosing shallower non-assumption line. *)
let forest (nodes : F.raw_node list) =
  let roots = ref [] and stack = ref [] in
  List.iter
    (fun (rn : F.raw_node) ->
      let rec pop () =
        match !stack with
        | top :: rest when top.rn.indent >= rn.indent ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      let t = { rn; kids = [] } in
      if not (is_assume rn) then begin
        (match !stack with
        | [] -> roots := t :: !roots
        | parent :: _ -> parent.kids <- t :: parent.kids);
        stack := t :: !stack
      end)
    nodes;
  List.rev !roots

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

(* [Case_rules.check]: the rules other than C009 are unchanged code, so
   they come from the library; C009 and the lexer are the oracle's. *)
let case_rules_check text =
  match parse_raw text with
  | exception F.Parse_error e ->
    [ D.make ~code:"C000" ~severity:D.Error ~line:e.line ~col:e.col e.message ]
  | [] -> [ D.make ~code:"C000" ~severity:D.Error ~line:0 "empty case document" ]
  | nodes ->
    D.sort
      (List.filter
         (fun (d : D.t) -> d.code <> "C009")
         (Analysis.Case_rules.check_raw nodes)
      @ shared_evidence nodes)

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
