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

(* [span_is s i j lit] — [s.[i..j)] spells [lit], without a copy. *)
let span_is s i j lit =
  let n = String.length lit in
  j - i = n
  &&
  let rec go k = k = n || (s.[i + k] = lit.[k] && go (k + 1)) in
  go 0

(* The line [s.[start..stop)] (no newline inside), numbered [number].
   Columns are 1-based from [start].  Words are separated by spaces only,
   so a tab is part of the token it touches. *)
let parse_line s number start stop =
  let col j = j - start + 1 in
  let rec skip_spaces j = if j < stop && s.[j] = ' ' then skip_spaces (j + 1) else j in
  let rec word_end j = if j < stop && s.[j] <> ' ' then word_end (j + 1) else j in
  let i0 = skip_spaces start in
  let spaces = i0 - start in
  if spaces mod 2 <> 0 then
    fail ~col:(spaces + 1) number "odd indentation (use 2 spaces)";
  let i1 = word_end i0 in
  if i0 = i1 then fail ~col:(col i0) number "empty line slipped through";
  let i2 = skip_spaces i1 in
  let i3 = word_end i2 in
  if i2 = i3 then fail ~col:(col i2) number "missing node id";
  let id = String.sub s i2 (i3 - i2) in
  let id_col = col i2 in
  let i4 = skip_spaces i3 in
  if i4 >= stop || s.[i4] <> '"' then
    fail ~col:(col i4)
      ~token:(String.sub s i4 (word_end i4 - i4))
      number "expected a quoted statement";
  let rec find_close j =
    if j >= stop then
      fail ~col:(col i4) ~token:(String.sub s i4 (stop - i4)) number
        "unterminated statement quote"
    else if s.[j] = '"' then j
    else find_close (j + 1)
  in
  let close = find_close (i4 + 1) in
  let statement = String.sub s (i4 + 1) (close - i4 - 1) in
  (* The trailing token: trimmed like [String.trim], but its column is
     where the spaces after the closing quote end. *)
  let rest_col = col (skip_spaces (close + 1)) in
  let rec first j = if j < stop && is_blank s.[j] then first (j + 1) else j in
  let r0 = first (close + 1) in
  let rec last j = if j > r0 && is_blank s.[j - 1] then last (j - 1) else j in
  let r1 = last stop in
  let rest () = String.sub s r0 (r1 - r0) in
  let value_col = if r0 = r1 then id_col else rest_col in
  let value what =
    match float_of_string_opt (rest ()) with
    | Some v -> v
    | None ->
      fail ~col:value_col ~token:(rest ()) number
        (if r0 = r1 then what
         else Printf.sprintf "%s, got %S" what (rest ()))
  in
  let item =
    if span_is s i0 i1 "goal" then
      if r0 = r1 || span_is s r0 r1 "all" then Raw_goal { combinator = Node.All }
      else if span_is s r0 r1 "any" then Raw_goal { combinator = Node.Any }
      else
        fail ~col:rest_col ~token:(rest ()) number
          (Printf.sprintf "unknown combinator %S" (rest ()))
    else if span_is s i0 i1 "evidence" then
      Raw_evidence { confidence = value "evidence needs a confidence value" }
    else if span_is s i0 i1 "assume" then
      Raw_assume { p_valid = value "assume needs a validity probability" }
    else
      let kind = String.sub s i0 (i1 - i0) in
      fail ~col:(col i0) ~token:kind number
        (Printf.sprintf "unknown node kind %S" kind)
  in
  { line = number; indent = spaces / 2; id; id_col; statement; value_col; item }

(* One scan over the text by offsets: no line list, no trimmed copies.  A
   line is skipped when it is blank or its first non-blank character is
   [#]. *)
let parse_raw text =
  let len = String.length text in
  let[@tail_mod_cons] rec lines start number =
    if start > len then []
    else
      let stop =
        match String.index_from_opt text start '\n' with
        | Some j -> j
        | None -> len
      in
      let rec first j = if j < stop && is_blank text.[j] then first (j + 1) else j in
      let k = first start in
      if k = stop || text.[k] = '#' then lines (stop + 1) (number + 1)
      else parse_line text number start stop :: lines (stop + 1) (number + 1)
  in
  lines 0 1

(* --- the strict loader ------------------------------------------------------

   One pass over the raw lines with a stack of open goals.  A goal is
   emitted into the builder when the first line that is not deeper than it
   arrives (or at the end), after all its children: postorder, so children
   precede parents and the node indices, CSR arrays and every derived
   column are those [Graph.of_node] gives the same tree.

   Errors come in a fixed order: the first line, then duplicate ids
   anywhere in the document, then the first structural or range fault in
   document order (a goal's "needs support" when it closes).  Duplicates
   are found by the builder's own id table as ids are interned; since a
   structural fault may stop the pass before a duplicate further down is
   interned, any failure re-scans the lines for the first duplicate,
   which then takes precedence. *)

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

let build raw root rest =
  let count = List.length raw in
  let b = Graph.Builder.create ~capacity:count ~ids:count () in
  let lines = Array.make count 0 and cols = Array.make count 0 in
  let placed (rn : raw_node) i =
    lines.(i) <- rn.line;
    cols.(i) <- rn.id_col;
    i
  in
  let evidence (rn : raw_node) confidence =
    if not (in_unit confidence) then
      fail ~col:rn.value_col rn.line "Node.evidence: confidence must be in (0,1]";
    placed rn
      (Graph.Builder.evidence b ~id:rn.id ~statement:rn.statement ~confidence ())
  in
  let root_index =
    match root.item with
    | Raw_assume _ ->
      fail ~col:root.id_col ~token:root.id root.line
        "an assumption cannot be the root"
    | Raw_evidence { confidence } ->
      (match rest with
      | next :: _ -> fail ~col:next.id_col next.line "content after evidence root"
      | [] -> ());
      evidence root confidence
    | Raw_goal { combinator } ->
      (* Children of the open goals, innermost last. *)
      let kids = ref (Array.make 64 0) and top = ref 0 in
      let push i =
        if !top = Array.length !kids then begin
          let bigger = Array.make (2 * !top) 0 in
          Array.blit !kids 0 bigger 0 !top;
          kids := bigger
        end;
        !kids.(!top) <- i;
        incr top
      in
      let close f =
        let n = !top - f.base in
        if n = 0 then
          fail ~col:f.goal.id_col f.goal.line "Node.goal: a goal needs support";
        top := f.base;
        placed f.goal
          (Graph.Builder.goal b ~id:f.goal.id ~statement:f.goal.statement
             ~assumptions:(List.rev f.assumptions) ~combinator:f.combinator
             (Array.sub !kids f.base n))
      in
      let stack =
        ref [ { goal = root; combinator; base = 0; assumptions = [] } ]
      in
      List.iter
        (fun rn ->
          let rec pop () =
            match !stack with
            | f :: outer when f.goal.indent >= rn.indent ->
              if outer = [] then fail ~col:rn.id_col rn.line "multiple root nodes";
              stack := outer;
              push (close f);
              pop ()
            | _ -> ()
          in
          pop ();
          let parent = List.hd !stack in
          if rn.indent > parent.goal.indent + 1 then
            fail ~col:(2 * rn.indent) rn.line
              "indentation jumps more than one level";
          match rn.item with
          | Raw_assume { p_valid } ->
            if not (in_unit p_valid) then
              fail ~col:rn.value_col rn.line
                "Node.assumption: p_valid must be in (0,1]";
            parent.assumptions <-
              { Node.aid = rn.id; a_statement = rn.statement; p_valid }
              :: parent.assumptions
          | Raw_evidence { confidence } -> push (evidence rn confidence)
          | Raw_goal { combinator } ->
            stack := { goal = rn; combinator; base = !top; assumptions = [] } :: !stack)
        rest;
      let rec drain () =
        match !stack with
        | [ f ] -> close f
        | f :: outer ->
          stack := outer;
          push (close f);
          drain ()
        | [] -> assert false
      in
      drain ()
  in
  let g = Graph.Builder.build b ~root:root_index in
  let n = Graph.size g in
  (g, { lines = Array.sub lines 0 n; cols = Array.sub cols 0 n })

let load raw =
  match raw with
  | [] -> fail 0 "empty case"
  | root :: _ when root.indent <> 0 ->
    fail ~col:1 root.line "root must not be indented"
  | root :: rest -> (
    try build raw root rest
    with (Parse_error _ | Invalid_argument _) as e -> (
      match first_duplicate raw with
      | Some (rn, first) ->
        fail ~col:rn.id_col ~token:rn.id rn.line
          (Printf.sprintf "duplicate id %s (first declared at line %d)" rn.id
             first)
      | None -> raise e))

let graph_of_raw raw = fst (load raw)
let graph text = graph_of_raw (parse_raw text)
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
