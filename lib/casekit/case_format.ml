(* Parse errors carry the 1-based line and column of the offending token and
   the token itself.  The historical { line; message } fields are a subset of
   the new payload, so code written against the old shape keeps compiling. *)
exception
  Parse_error of { line : int; col : int; token : string; message : string }

let fail ?(col = 1) ?(token = "") line message =
  raise (Parse_error { line; col; token; message })

(* --- raw (lenient) layer --------------------------------------------------

   [parse_raw] tokenises the document into a flat list of position-annotated
   lines without enforcing any structural or range invariant: out-of-range
   confidences, duplicate ids, dangling assumptions and indentation faults
   all survive into the raw form so the static analyser (lib/analysis) can
   report them as diagnostics instead of dying on the first one.  Only
   lexical faults — an unreadable token on a single line — raise. *)

type raw_item =
  | Raw_goal of { combinator : Node.combinator }
  | Raw_evidence of { confidence : float }
  | Raw_assume of { p_valid : float }

type raw_node = {
  line : int;
  indent : int;  (* levels: two spaces each *)
  id : string;
  id_col : int;  (* 1-based column of the id token *)
  statement : string;
  value_col : int;  (* column of the trailing value/combinator token *)
  item : raw_item;
}

(* The characters [String.trim] strips: a line made only of these is blank,
   and they are trimmed off the trailing value token. *)
let is_blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

(* The lexer's scans are top-level functions of the text and offsets, so
   lexing a line allocates no closures.  Each returns the first offset in
   [j, stop) where its condition fails, or [stop]. *)
let rec skip_spaces s stop j =
  if j < stop && s.[j] = ' ' then skip_spaces s stop (j + 1) else j

let rec word_end s stop j =
  if j < stop && s.[j] <> ' ' then word_end s stop (j + 1) else j

let rec skip_blanks s stop j =
  if j < stop && is_blank s.[j] then skip_blanks s stop (j + 1) else j

let rec quote_at s stop j =
  if j < stop && s.[j] <> '"' then quote_at s stop (j + 1) else j

let rec line_end s len j =
  if j < len && s.[j] <> '\n' then line_end s len (j + 1) else j

(* [trim_end s start j] — [j] moved left past the blanks that end
   [s.[start..j)]. *)
let rec trim_end s start j =
  if j > start && is_blank s.[j - 1] then trim_end s start (j - 1) else j

(* [span_is s i j lit] — [s.[i..j)] spells [lit], without a copy. *)
let rec spells s i lit k n = k = n || (s.[i + k] = lit.[k] && spells s i lit (k + 1) n)
let span_is s i j lit = j - i = String.length lit && spells s i lit 0 (j - i)

(* A line is skipped when it is blank or its first non-blank character is
   [#]. *)
let is_node_line s start stop =
  let k = skip_blanks s stop start in
  k < stop && s.[k] <> '#'

(* The value token [s.[r0..r1)] of an evidence or assumption line. *)
let value s number r0 r1 value_col what =
  let token = String.sub s r0 (r1 - r0) in
  match float_of_string_opt token with
  | Some v -> v
  | None ->
    fail ~col:value_col ~token number
      (if r0 = r1 then what else Printf.sprintf "%s, got %S" what token)

(* The line [s.[start..stop)] (no newline inside), numbered [number].
   Columns are 1-based from [start].  Words are separated by spaces only,
   so a tab is part of the token it touches. *)
let parse_line s number start stop =
  let i0 = skip_spaces s stop start in
  let spaces = i0 - start in
  if spaces mod 2 <> 0 then
    fail ~col:(spaces + 1) number "odd indentation (use 2 spaces)";
  let i1 = word_end s stop i0 in
  if i0 = i1 then fail ~col:(i0 - start + 1) number "empty line slipped through";
  let i2 = skip_spaces s stop i1 in
  let i3 = word_end s stop i2 in
  if i2 = i3 then fail ~col:(i2 - start + 1) number "missing node id";
  let id_col = i2 - start + 1 in
  let i4 = skip_spaces s stop i3 in
  if i4 >= stop || s.[i4] <> '"' then
    fail ~col:(i4 - start + 1)
      ~token:(String.sub s i4 (word_end s stop i4 - i4))
      number "expected a quoted statement";
  let close = quote_at s stop (i4 + 1) in
  if close = stop then
    fail ~col:(i4 - start + 1) ~token:(String.sub s i4 (stop - i4)) number
      "unterminated statement quote";
  (* The trailing token: trimmed like [String.trim], but its column is
     where the spaces after the closing quote end. *)
  let rest_col = skip_spaces s stop (close + 1) - start + 1 in
  let r0 = skip_blanks s stop (close + 1) in
  let r1 = trim_end s r0 stop in
  let value_col = if r0 = r1 then id_col else rest_col in
  let item =
    if span_is s i0 i1 "goal" then
      if r0 = r1 || span_is s r0 r1 "all" then Raw_goal { combinator = Node.All }
      else if span_is s r0 r1 "any" then Raw_goal { combinator = Node.Any }
      else
        let token = String.sub s r0 (r1 - r0) in
        fail ~col:rest_col ~token number
          (Printf.sprintf "unknown combinator %S" token)
    else if span_is s i0 i1 "evidence" then
      Raw_evidence
        { confidence =
            value s number r0 r1 value_col "evidence needs a confidence value" }
    else if span_is s i0 i1 "assume" then
      Raw_assume
        { p_valid =
            value s number r0 r1 value_col "assume needs a validity probability" }
    else
      let kind = String.sub s i0 (i1 - i0) in
      fail ~col:(i0 - start + 1) ~token:kind number
        (Printf.sprintf "unknown node kind %S" kind)
  in
  { line = number;
    indent = spaces / 2;
    id = String.sub s i2 (i3 - i2);
    id_col;
    statement = String.sub s (i4 + 1) (close - i4 - 1);
    value_col;
    item }

(* One scan over the text by offsets: no line list, no trimmed copies. *)
let[@tail_mod_cons] rec raw_lines s len start number =
  if start > len then []
  else
    let stop = line_end s len start in
    if is_node_line s start stop then
      parse_line s number start stop :: raw_lines s len (stop + 1) (number + 1)
    else raw_lines s len (stop + 1) (number + 1)

let parse_raw text = raw_lines text (String.length text) 0 1

(* [iter_lines f text (String.length text) 0 1] is
   [List.iter f (parse_raw text)] without the list. *)
let rec iter_lines f s len start number =
  if start <= len then begin
    let stop = line_end s len start in
    if is_node_line s start stop then f (parse_line s number start stop);
    iter_lines f s len (stop + 1) (number + 1)
  end

(* --- the strict loader ------------------------------------------------------

   One pass over the raw lines with a stack of open goals.  A goal is
   emitted into the builder when the first line that is not deeper than it
   arrives (or at the end), after all its children: postorder, so children
   precede parents and the node indices, CSR arrays and every derived
   column are those [Graph.of_node] gives the same tree.  The pass is a
   [step] per line over a [loader], so it runs the same over a raw list
   ([load]) and straight off the lexer ([graph]).

   Errors come in a fixed order: the first line, then duplicate ids
   anywhere in the document, then the first structural or range fault in
   document order (a goal's "needs support" when it closes).  Duplicates
   are found by the builder's own id table as ids are interned; since a
   structural fault may stop the pass before a duplicate further down is
   interned, any failure re-scans the lines for the first duplicate,
   which then takes precedence.  A streamed [graph] that fails reruns
   [load] over [parse_raw] for its error, so lexical faults still come
   first. *)

type positions = { lines : int array; cols : int array }

(* Range faults carry the messages of the [Node] constructors, so a value
   reads the same whether it was loaded or built by hand. *)
let in_unit v = v > 0.0 && v <= 1.0

let first_duplicate raw =
  let seen = Hashtbl.create 64 in
  let rec go = function
    | [] -> None
    | rn :: rest -> (
      match Hashtbl.find_opt seen rn.id with
      | Some first -> Some (rn, first)
      | None ->
        Hashtbl.add seen rn.id rn.line;
        go rest)
  in
  go raw

type frame = {
  goal : raw_node;
  combinator : Node.combinator;
  base : int; (* where this goal's children start on the child stack *)
  mutable assumptions : Node.assumption list; (* reversed *)
}

type loader = {
  b : Graph.Builder.b;
  positions : bool; (* whether to record [lines] and [cols] *)
  mutable lines : int array; (* source position of each emitted node *)
  mutable cols : int array;
  mutable kids : int array; (* children of the open goals, innermost last *)
  mutable top : int;
  mutable frames : frame list; (* open goals, innermost first *)
  mutable leaf_root : (raw_node * float) option; (* an evidence root *)
}

let loader ~positions ?ids capacity =
  let capacity = max capacity 16 in
  let column () = Array.make (if positions then capacity else 0) 0 in
  { b = Graph.Builder.create ~capacity ?ids ();
    positions;
    lines = column ();
    cols = column ();
    kids = Array.make 64 0;
    top = 0;
    frames = [];
    leaf_root = None }

let grown a n = if n < Array.length a then a else Array.append a (Array.make n 0)

let placed ld (rn : raw_node) i =
  if ld.positions then begin
    ld.lines <- grown ld.lines i;
    ld.cols <- grown ld.cols i;
    ld.lines.(i) <- rn.line;
    ld.cols.(i) <- rn.id_col
  end;
  i

let push ld i =
  ld.kids <- grown ld.kids ld.top;
  ld.kids.(ld.top) <- i;
  ld.top <- ld.top + 1

let evidence ld (rn : raw_node) confidence =
  if not (in_unit confidence) then
    fail ~col:rn.value_col rn.line "Node.evidence: confidence must be in (0,1]";
  placed ld rn
    (Graph.Builder.evidence ld.b ~id:rn.id ~statement:rn.statement ~confidence ())

let close ld f =
  let n = ld.top - f.base in
  if n = 0 then fail ~col:f.goal.id_col f.goal.line "Node.goal: a goal needs support";
  ld.top <- f.base;
  placed ld f.goal
    (Graph.Builder.goal ld.b ~id:f.goal.id ~statement:f.goal.statement
       ~assumptions:(List.rev f.assumptions) ~combinator:f.combinator
       (Array.sub ld.kids f.base n))

(* Close the open goals no shallower than [rn]. *)
let rec pop ld rn =
  match ld.frames with
  | f :: outer when f.goal.indent >= rn.indent ->
    if outer = [] then fail ~col:rn.id_col rn.line "multiple root nodes";
    ld.frames <- outer;
    push ld (close ld f);
    pop ld rn
  | _ -> ()

let open_goal ld rn combinator =
  ld.frames <- { goal = rn; combinator; base = ld.top; assumptions = [] } :: ld.frames

let step ld rn =
  match (ld.frames, ld.leaf_root) with
  | [], None -> (
    if rn.indent <> 0 then fail ~col:1 rn.line "root must not be indented";
    match rn.item with
    | Raw_assume _ ->
      fail ~col:rn.id_col ~token:rn.id rn.line "an assumption cannot be the root"
    | Raw_evidence { confidence } -> ld.leaf_root <- Some (rn, confidence)
    | Raw_goal { combinator } -> open_goal ld rn combinator)
  | _, Some _ -> fail ~col:rn.id_col rn.line "content after evidence root"
  | _ :: _, None -> (
    pop ld rn;
    let parent = List.hd ld.frames in
    if rn.indent > parent.goal.indent + 1 then
      fail ~col:(2 * rn.indent) rn.line "indentation jumps more than one level";
    match rn.item with
    | Raw_assume { p_valid } ->
      if not (in_unit p_valid) then
        fail ~col:rn.value_col rn.line "Node.assumption: p_valid must be in (0,1]";
      parent.assumptions <-
        { Node.aid = rn.id; a_statement = rn.statement; p_valid } :: parent.assumptions
    | Raw_evidence { confidence } -> push ld (evidence ld rn confidence)
    | Raw_goal { combinator } -> open_goal ld rn combinator)

let rec drain ld =
  match ld.frames with
  | [ f ] -> close ld f
  | f :: outer ->
    ld.frames <- outer;
    push ld (close ld f);
    drain ld
  | [] -> assert false

let finish ld =
  let root =
    match (ld.leaf_root, ld.frames) with
    | Some (rn, confidence), _ -> evidence ld rn confidence
    | None, [] -> fail 0 "empty case"
    | None, _ :: _ -> drain ld
  in
  Graph.Builder.build ld.b ~root

let load raw =
  let n = List.length raw in
  let ld = loader ~positions:true ~ids:n n in
  try
    List.iter (step ld) raw;
    let g = finish ld in
    let size = Graph.size g in
    (g, { lines = Array.sub ld.lines 0 size; cols = Array.sub ld.cols 0 size })
  with (Parse_error _ | Invalid_argument _) as e -> (
    match raw with
    | root :: _ when root.indent <> 0 -> raise e (* reported before duplicates *)
    | _ -> (
      match first_duplicate raw with
      | Some (rn, first) ->
        fail ~col:rn.id_col ~token:rn.id rn.line
          (Printf.sprintf "duplicate id %s (first declared at line %d)" rn.id
             first)
      | None -> raise e))

(* Without the raw list the line count is unknown: size the builder's
   columns for lines of about 64 bytes, and let its id table, which the
   graph keeps, grow from the default to fit.  No positions are recorded:
   only [load]'s callers read them. *)
let graph text =
  let len = String.length text in
  let ld = loader ~positions:false (len / 64) in
  match
    iter_lines (step ld) text len 0 1;
    finish ld
  with
  | g -> g
  | exception (Parse_error _ | Invalid_argument _) -> fst (load (parse_raw text))

let graph_of_raw raw = fst (load raw)
let parse text = Graph.to_node (graph text)

(* --- printing --------------------------------------------------------------- *)

(* What [parse] cannot read back: a statement is delimited by quotes and
   ends at the line, an id is one space-free word. *)
let printable_statement s =
  not (String.exists (fun c -> c = '"' || c = '\n' || c = '\r') s)

let printable_id id = id <> "" && not (String.exists is_blank id)

let print node =
  let check what id statement =
    if not (printable_id id) then
      invalid_arg
        (Printf.sprintf "Case_format.print: %s id %S is empty or contains \
                         whitespace" what id);
    if not (printable_statement statement) then
      invalid_arg
        (Printf.sprintf "Case_format.print: statement of %s %s contains a \
                         quote or a line break" what id)
  in
  let buf = Buffer.create 256 in
  let pad depth = String.make (2 * depth) ' ' in
  let rec go depth = function
    | Node.Evidence e ->
      check "evidence" e.id e.statement;
      Buffer.add_string buf
        (Printf.sprintf "%sevidence %s \"%s\" %.17g\n" (pad depth) e.id
           e.statement e.confidence)
    | Node.Goal g ->
      check "goal" g.id g.statement;
      let comb = match g.combinator with Node.All -> "all" | Node.Any -> "any" in
      Buffer.add_string buf
        (Printf.sprintf "%sgoal %s \"%s\" %s\n" (pad depth) g.id g.statement comb);
      List.iter
        (fun (a : Node.assumption) ->
          check "assumption" a.aid a.a_statement;
          Buffer.add_string buf
            (Printf.sprintf "%sassume %s \"%s\" %.17g\n"
               (pad (depth + 1))
               a.aid a.a_statement a.p_valid))
        g.assumptions;
      List.iter (go (depth + 1)) g.supported_by
  in
  go 0 node;
  Buffer.contents buf
