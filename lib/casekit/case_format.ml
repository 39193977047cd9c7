(* Parse errors carry the 1-based line and column of the offending token and
   the token itself.  The historical { line; message } fields are a subset of
   the new payload, so code written against the old shape keeps compiling. *)
exception
  Parse_error of { line : int; col : int; token : string; message : string }

let fail ?(col = 1) ?(token = "") line message =
  raise (Parse_error { line; col; token; message })

(* --- raw (lenient) layer --------------------------------------------------

   [lex] tokenises the document into columns of position-annotated lines
   ([Raw]) without enforcing any structural or range invariant: out-of-range
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

(* The two longest scans step eight bytes at a time while a word holds
   no byte they stop at.  [has_byte bytes s j], [bytes] the byte to find
   in all eight lanes: a byte of [w = s.[j..j+8) lxor bytes] is zero
   where [s] has that byte, and [(w - 0x01..01) land lnot w land
   0x80..80] is non-zero iff some byte of [w] is zero. *)
external word : string -> int -> int64 = "%caml_string_get64"

let newlines = 0x0a0a0a0a0a0a0a0aL
let quotes = 0x2222222222222222L

let[@inline] has_byte bytes s j =
  let w = Int64.logxor (word s j) bytes in
  not
    (Int64.equal 0L
       (Int64.logand
          (Int64.logand (Int64.sub w 0x0101010101010101L) (Int64.lognot w))
          0x8080808080808080L))

let rec quote_at s stop j =
  if j + 8 <= stop && not (has_byte quotes s j) then quote_at s stop (j + 8)
  else if j < stop && s.[j] <> '"' then quote_at s stop (j + 1)
  else j

let rec line_end s len j =
  if j + 8 <= len && not (has_byte newlines s j) then line_end s len (j + 8)
  else if j < len && s.[j] <> '\n' then line_end s len (j + 1)
  else j

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

(* --- the lexer ----------------------------------------------------------------

   One lexer for every reader of the format.  [lex_line] reads one line
   into a [row]: its kind, indentation, line number, the spans of its id
   and statement in the text, the columns of its id and value tokens, and
   the value.  A row is overwritten by the next line, so lexing allocates
   nothing per line beyond the float [Numerics.Decimal] returns.  The
   streamed loader steps straight off the row; [Raw.lex] copies each row
   into the columns of a [Raw.t]. *)

module Columns = Numerics.Columns

module Raw = struct
  type kind = All_goal | Any_goal | Evidence | Assume

  (* A record of one float field is stored flat: writing it boxes
     nothing. *)
  type num = { mutable value : float }

  type row = {
    mutable kind : kind;
    mutable line : int;
    mutable indent : int;
    mutable id_at : int;
    mutable id_len : int;
    mutable st_at : int;
    mutable st_len : int;
    mutable id_col : int;
    mutable value_col : int;
    num : num;
  }

  let row () =
    { kind = Evidence; line = 0; indent = 0; id_at = 0; id_len = 0; st_at = 0;
      st_len = 0; id_col = 0; value_col = 0; num = { value = 0.0 } }

  (* [copy r d] — the line held in [r], into [d]. *)
  let copy (r : row) (d : row) =
    d.kind <- r.kind;
    d.line <- r.line;
    d.indent <- r.indent;
    d.id_at <- r.id_at;
    d.id_len <- r.id_len;
    d.st_at <- r.st_at;
    d.st_len <- r.st_len;
    d.id_col <- r.id_col;
    d.value_col <- r.value_col;
    d.num.value <- r.num.value

  (* The value token [s.[r0..r1)] of an evidence or assumption line,
     read in place. *)
  let value row s number r0 r1 what =
    let n = r1 - r0 in
    match Numerics.Decimal.of_span s r0 n with
    | v -> row.num.value <- v
    | exception Failure _ ->
      let token = String.sub s r0 n in
      fail ~col:row.value_col ~token number
        (if n = 0 then what else Printf.sprintf "%s, got %S" what token)

  (* The line [s.[start..stop)] (no newline inside), numbered [number],
     into [row].  Columns are 1-based from [start].  Words are separated
     by spaces only, so a tab is part of the token it touches. *)
  let lex_line row s number start stop =
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
    row.line <- number;
    row.indent <- spaces / 2;
    row.id_at <- i2;
    row.id_len <- i3 - i2;
    row.st_at <- i4 + 1;
    row.st_len <- close - i4 - 1;
    row.id_col <- id_col;
    row.value_col <- (if r0 = r1 then id_col else rest_col);
    if span_is s i0 i1 "goal" then
      row.kind <-
        (if r0 = r1 || span_is s r0 r1 "all" then All_goal
         else if span_is s r0 r1 "any" then Any_goal
         else
           let token = String.sub s r0 (r1 - r0) in
           fail ~col:rest_col ~token number
             (Printf.sprintf "unknown combinator %S" token))
    else if span_is s i0 i1 "evidence" then begin
      value row s number r0 r1 "evidence needs a confidence value";
      row.kind <- Evidence
    end
    else if span_is s i0 i1 "assume" then begin
      value row s number r0 r1 "assume needs a validity probability";
      row.kind <- Assume
    end
    else
      let kind = String.sub s i0 (i1 - i0) in
      fail ~col:(i0 - start + 1) ~token:kind number
        (Printf.sprintf "unknown node kind %S" kind)

  (* [iter_rows f row s] — [f row] for each node line of [s], lexed into
     [row], in document order: one scan by offsets, no line list and no
     trimmed copies. *)
  let iter_rows f row s =
    let len = String.length s in
    let start = ref 0 and number = ref 1 in
    while !start <= len do
      let stop = line_end s len !start in
      if is_node_line s !start stop then begin
        lex_line row s !number !start stop;
        f row
      end;
      start := stop + 1;
      incr number
    done

  (* The number of lines of [s], counted eight bytes at a time: an upper
     bound on its node lines, to size the columns once. *)
  let count_lines s =
    let len = String.length s in
    let n = ref 0 and i = ref 0 in
    while !i + 8 <= len do
      if has_byte newlines s !i then
        for j = !i to !i + 7 do
          if String.unsafe_get s j = '\n' then incr n
        done;
      i := !i + 8
    done;
    for j = !i to len - 1 do
      if String.unsafe_get s j = '\n' then incr n
    done;
    if len > 0 && s.[len - 1] <> '\n' then !n + 1 else !n

  (* The columns: line [k]'s row, field by field, sized for the most
     lines the text can hold.  [ids] caches the document's id table once
     built ([id_table]). *)
  type t = {
    text : string;
    mutable count : int;
    kinds : Bytes.t;
    lines : int array;
    indents : int array;
    id_at : int array;
    id_len : int array;
    st_at : int array;
    st_len : int array;
    id_cols : int array;
    value_cols : int array;
    values : Columns.t;
    mutable ids : (Intern.t * int array) option;
  }

  let create text n =
    let n = max n 1 in
    let column () = Array.make n 0 in
    { text; count = 0; kinds = Bytes.create n; lines = column ();
      indents = column (); id_at = column (); id_len = column ();
      st_at = column (); st_len = column (); id_cols = column ();
      value_cols = column (); values = Columns.create ~capacity:n ();
      ids = None }

  let code = function All_goal -> '\000' | Any_goal -> '\001' | Evidence -> '\002' | Assume -> '\003'

  let kind t k =
    match Bytes.get t.kinds k with
    | '\000' -> All_goal
    | '\001' -> Any_goal
    | '\002' -> Evidence
    | _ -> Assume

  let push t (r : row) =
    let k = t.count in
    Bytes.set t.kinds k (code r.kind);
    t.lines.(k) <- r.line;
    t.indents.(k) <- r.indent;
    t.id_at.(k) <- r.id_at;
    t.id_len.(k) <- r.id_len;
    t.st_at.(k) <- r.st_at;
    t.st_len.(k) <- r.st_len;
    t.id_cols.(k) <- r.id_col;
    t.value_cols.(k) <- r.value_col;
    Columns.push t.values (match r.kind with Evidence | Assume -> r.num.value | _ -> 0.0);
    t.count <- k + 1

  (* [get t k r] — line [k] back into the row [r]. *)
  let get t k (r : row) =
    r.kind <- kind t k;
    r.line <- t.lines.(k);
    r.indent <- t.indents.(k);
    r.id_at <- t.id_at.(k);
    r.id_len <- t.id_len.(k);
    r.st_at <- t.st_at.(k);
    r.st_len <- t.st_len.(k);
    r.id_col <- t.id_cols.(k);
    r.value_col <- t.value_cols.(k);
    r.num.value <- Columns.get t.values k

  let lex text =
    let t = create text (count_lines text) in
    iter_rows (push t) (row ()) text;
    t

  let length t = t.count
  let text t = t.text
  let line t k = t.lines.(k)
  let indent t k = t.indents.(k)
  let id_at t k = t.id_at.(k)
  let id_len t k = t.id_len.(k)
  let statement_at t k = t.st_at.(k)
  let statement_len t k = t.st_len.(k)
  let id_col t k = t.id_cols.(k)
  let value_col t k = t.value_cols.(k)
  let value t k = Columns.get t.values k
  let id t k = String.sub t.text t.id_at.(k) t.id_len.(k)
  let statement t k = String.sub t.text t.st_at.(k) t.st_len.(k)

  (* The document's ids interned by line: [first.(k)] is the first line
     whose id equals line [k]'s ([k] when it is new).  Built once per
     document and kept, so the lint's duplicate rule (C001) and the
     loader, whose graph keeps the table as its own, share one pass. *)
  type probe = { mutable at : int; mutable len : int }

  let id_table t =
    match t.ids with
    | Some ids -> ids
    | None ->
      let table = Intern.create t.count in
      let first = Array.make t.count 0 in
      let q = { at = 0; len = 0 } in
      let same j = t.id_len.(j) = q.len && Intern.span_equal t.text t.id_at.(j) t.text q.at q.len in
      for k = 0 to t.count - 1 do
        q.at <- t.id_at.(k);
        q.len <- t.id_len.(k);
        first.(k) <- Intern.intern table (Intern.span_hash t.text q.at q.len) same k
      done;
      t.ids <- Some (table, first);
      (table, first)

  let first_ids t = snd (id_table t)

  let node t k =
    let value = value t k in
    { line = t.lines.(k);
      indent = t.indents.(k);
      id = id t k;
      id_col = t.id_cols.(k);
      statement = statement t k;
      value_col = t.value_cols.(k);
      item =
        (match kind t k with
        | All_goal -> Raw_goal { combinator = Node.All }
        | Any_goal -> Raw_goal { combinator = Node.Any }
        | Evidence -> Raw_evidence { confidence = value }
        | Assume -> Raw_assume { p_valid = value }) }

  let to_nodes t = List.init t.count (node t)

  (* The columns of a raw list: its ids and statements laid end to end
     make the text the spans point into. *)
  let of_nodes nodes =
    let buf = Buffer.create 1024 in
    let t = create "" (List.length nodes) in
    let r = row () in
    List.iter
      (fun (rn : raw_node) ->
        r.line <- rn.line;
        r.indent <- rn.indent;
        r.id_at <- Buffer.length buf;
        r.id_len <- String.length rn.id;
        Buffer.add_string buf rn.id;
        r.st_at <- Buffer.length buf;
        r.st_len <- String.length rn.statement;
        Buffer.add_string buf rn.statement;
        r.id_col <- rn.id_col;
        r.value_col <- rn.value_col;
        (match rn.item with
        | Raw_goal { combinator = Node.All } -> r.kind <- All_goal
        | Raw_goal { combinator = Node.Any } -> r.kind <- Any_goal
        | Raw_evidence { confidence } ->
          r.kind <- Evidence;
          r.num.value <- confidence
        | Raw_assume { p_valid } ->
          r.kind <- Assume;
          r.num.value <- p_valid);
        push t r)
      nodes;
    { t with text = Buffer.contents buf }
end

let lex = Raw.lex
let parse_raw text = Raw.to_nodes (lex text)

(* --- the strict loader ------------------------------------------------------

   One pass over the lexed rows with a stack of open goals.  A goal is
   emitted into the builder when the first line that is not deeper than it
   arrives (or at the end), after all its children: postorder, so children
   precede parents and the node indices, CSR arrays and every derived
   column are those [Graph.of_node] gives the same tree.  The pass is a
   [step] per row, so it runs the same over the columns ([load]) and
   straight off the lexer ([graph]).  The graph keeps the text itself,
   and its ids and statements are spans of it; only assumptions, which
   the graph still keeps as [Node.assumption] records, are copied out as
   strings.

   Errors come in a fixed order: the first line, then duplicate ids
   anywhere in the document, then the first structural or range fault in
   document order (a goal's "needs support" when it closes).  [load]
   finds duplicates up front in the document's id table, which the graph
   then keeps as its own; a streamed [graph] interns ids as it emits
   them, and on any fault reruns [load] over [lex] for its error, so
   lexical faults still come first. *)

type positions = { lines : int array; cols : int array }

(* Range faults carry the messages of the [Node] constructors, so a value
   reads the same whether it was loaded or built by hand. *)
let in_unit v = v > 0.0 && v <= 1.0

(* An open goal: its line, copied out of the lexer's row.  Frames are
   reused by depth, so a document allocates as many as it nests deep. *)
type frame = {
  goal : Raw.row;
  mutable key : int;
  mutable base : int; (* where this goal's children start on [kids] *)
  mutable assumptions : Node.assumption list; (* reversed *)
  mutable keys : int list; (* the assumptions' keys, reversed *)
  mutable ats : int list; (* where the assumptions' ids sit, reversed *)
}

let frame () =
  { goal = Raw.row (); key = -1; base = 0; assumptions = []; keys = []; ats = [] }

type loader = {
  b : Graph.Builder.b;
  text : string;
  positions : bool; (* whether to record [lines] and [cols] *)
  mutable lines : int array; (* source position of each emitted node *)
  mutable cols : int array;
  mutable kids : int array; (* children of the open goals, innermost last *)
  mutable top : int;
  mutable frames : frame array; (* open goals, outermost first *)
  mutable depth : int;
  leaf : Raw.row; (* an evidence root, when [leaf_root] *)
  mutable leaf_key : int;
  mutable leaf_root : bool;
}

let loader ~positions ?table text capacity =
  let capacity = max capacity 16 in
  let column () = Array.make (if positions then capacity else 0) 0 in
  { b = Graph.Builder.of_text ~capacity ?table text;
    text;
    positions;
    lines = column ();
    cols = column ();
    kids = Array.make 64 0;
    top = 0;
    frames = Array.init 16 (fun _ -> frame ());
    depth = 0;
    leaf = Raw.row ();
    leaf_key = -1;
    leaf_root = false }

let grown a n = if n < Array.length a then a else Array.append a (Array.make n 0)

let placed ld line col i =
  if ld.positions then begin
    ld.lines <- grown ld.lines i;
    ld.cols <- grown ld.cols i;
    ld.lines.(i) <- line;
    ld.cols.(i) <- col
  end;
  i

let push ld i =
  ld.kids <- grown ld.kids ld.top;
  ld.kids.(ld.top) <- i;
  ld.top <- ld.top + 1

let evidence ld (r : Raw.row) key =
  let confidence = r.num.value in
  if not (in_unit confidence) then
    fail ~col:r.value_col r.line "Node.evidence: confidence must be in (0,1]";
  placed ld r.line r.id_col
    (Graph.Builder.evidence_span ld.b ~key ~id:r.id_at ~id_len:r.id_len
       ~statement:r.st_at ~statement_len:r.st_len ~confidence)

let close ld f =
  let n = ld.top - f.base and g = f.goal in
  if n = 0 then fail ~col:g.id_col g.line "Node.goal: a goal needs support";
  ld.top <- f.base;
  placed ld g.line g.id_col
    (Graph.Builder.goal_span ld.b ~key:f.key ~id:g.id_at ~id_len:g.id_len
       ~statement:g.st_at ~statement_len:g.st_len
       ~assumptions:(List.rev f.assumptions) ~keys:(List.rev f.keys)
       ~assumption_ids:(List.rev f.ats)
       ~combinator:(if g.kind = Raw.Any_goal then Node.Any else Node.All)
       ld.kids ~pos:f.base ~len:n)

(* Close the open goals no shallower than [r]. *)
let pop ld (r : Raw.row) =
  while ld.depth > 0 && ld.frames.(ld.depth - 1).goal.indent >= r.indent do
    if ld.depth = 1 then fail ~col:r.id_col r.line "multiple root nodes";
    ld.depth <- ld.depth - 1;
    push ld (close ld ld.frames.(ld.depth))
  done

let open_goal ld r key =
  if ld.depth = Array.length ld.frames then
    ld.frames <- Array.append ld.frames (Array.init ld.depth (fun _ -> frame ()));
  let f = ld.frames.(ld.depth) in
  Raw.copy r f.goal;
  f.key <- key;
  f.base <- ld.top;
  f.assumptions <- [];
  f.keys <- [];
  f.ats <- [];
  ld.depth <- ld.depth + 1

(* [step ld r key] — the row [r], whose id has position [key] in a preset
   id table (-1 without one). *)
let step ld (r : Raw.row) key =
  if ld.leaf_root then fail ~col:r.id_col r.line "content after evidence root"
  else if ld.depth = 0 then begin
    if r.indent <> 0 then fail ~col:1 r.line "root must not be indented";
    match r.kind with
    | Assume ->
      fail ~col:r.id_col ~token:(String.sub ld.text r.id_at r.id_len) r.line
        "an assumption cannot be the root"
    | Evidence ->
      ld.leaf_root <- true;
      Raw.copy r ld.leaf;
      ld.leaf_key <- key
    | All_goal | Any_goal -> open_goal ld r key
  end
  else begin
    pop ld r;
    let parent = ld.frames.(ld.depth - 1) in
    if r.indent > parent.goal.indent + 1 then
      fail ~col:(2 * r.indent) r.line "indentation jumps more than one level";
    match r.kind with
    | Assume ->
      let p_valid = r.num.value in
      if not (in_unit p_valid) then
        fail ~col:r.value_col r.line "Node.assumption: p_valid must be in (0,1]";
      parent.assumptions <-
        { Node.aid = String.sub ld.text r.id_at r.id_len;
          a_statement = String.sub ld.text r.st_at r.st_len;
          p_valid }
        :: parent.assumptions;
      parent.keys <- key :: parent.keys;
      parent.ats <- r.id_at :: parent.ats
    | Evidence -> push ld (evidence ld r key)
    | All_goal | Any_goal -> open_goal ld r key
  end

let finish ld =
  let root =
    if ld.leaf_root then evidence ld ld.leaf ld.leaf_key
    else if ld.depth = 0 then fail 0 "empty case"
    else begin
      while ld.depth > 1 do
        ld.depth <- ld.depth - 1;
        push ld (close ld ld.frames.(ld.depth))
      done;
      close ld ld.frames.(0)
    end
  in
  Graph.Builder.build ld.b ~root

let load raw =
  let n = Raw.length raw in
  if n > 0 && Raw.indent raw 0 <> 0 then
    fail ~col:1 (Raw.line raw 0) "root must not be indented";
  let table, first = Raw.id_table raw in
  let rec duplicate k =
    if k < n then
      if first.(k) = k then duplicate (k + 1)
      else
        let id = Raw.id raw k in
        fail ~col:(Raw.id_col raw k) ~token:id (Raw.line raw k)
          (Printf.sprintf "duplicate id %s (first declared at line %d)" id
             (Raw.line raw first.(k)))
  in
  duplicate 0;
  let ld =
    loader ~positions:true ~table:(table, raw.id_at, raw.id_len) (Raw.text raw) n
  in
  let row = Raw.row () in
  for k = 0 to n - 1 do
    Raw.get raw k row;
    step ld row k
  done;
  let g = finish ld in
  (g, { lines = ld.lines; cols = ld.cols })

(* Without the columns no positions are recorded: only [load]'s callers
   read them. *)
let graph text =
  let ld = loader ~positions:false text (Raw.count_lines text) in
  match
    Raw.iter_rows (fun r -> step ld r (-1)) (Raw.row ()) text;
    finish ld
  with
  | g -> g
  | exception (Parse_error _ | Invalid_argument _) -> fst (load (lex text))

let graph_of_raw raw = fst (load raw)
let parse text = Graph.to_node (graph text)

(* --- printing --------------------------------------------------------------- *)

(* What [parse] cannot read back: a statement is delimited by quotes and
   ends at the line, an id is one space-free word. *)
let printable_statement s =
  not (String.exists (fun c -> c = '"' || c = '\n' || c = '\r') s)

let printable_id id = id <> "" && not (String.exists is_blank id)

(* One buffer for the document: each line is written into it piece by
   piece, with no string made per line. *)
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
  let line depth kind id statement =
    for _ = 1 to 2 * depth do
      Buffer.add_char buf ' '
    done;
    Buffer.add_string buf kind;
    Buffer.add_char buf ' ';
    Buffer.add_string buf id;
    Buffer.add_string buf " \"";
    Buffer.add_string buf statement;
    Buffer.add_string buf "\" "
  in
  let rec go depth = function
    | Node.Evidence e ->
      check "evidence" e.id e.statement;
      line depth "evidence" e.id e.statement;
      Printf.bprintf buf "%.17g\n" e.confidence
    | Node.Goal g ->
      check "goal" g.id g.statement;
      line depth "goal" g.id g.statement;
      Buffer.add_string buf
        (match g.combinator with Node.All -> "all\n" | Node.Any -> "any\n");
      List.iter
        (fun (a : Node.assumption) ->
          check "assumption" a.aid a.a_statement;
          line (depth + 1) "assume" a.aid a.a_statement;
          Printf.bprintf buf "%.17g\n" a.p_valid)
        g.assumptions;
      List.iter (go (depth + 1)) g.supported_by
  in
  go 0 node;
  Buffer.contents buf
