module D = Diagnostic
module F = Casekit.Case_format
module Intern = Casekit.Intern

(* Argument-shape smells (C007/C008): deeper or wider than this and the
   case has stopped being reviewable by a human assessor. *)
let max_depth = 8
let max_fan_out = 10

let codes =
  [ ("C000", D.Error, "document does not lex; nothing can be analysed");
    ("C001", D.Error, "duplicate node id");
    ("C002", D.Error, "confidence or validity probability outside (0,1]");
    ("C003", D.Warning, "confidence or validity probability of exactly 1.0 \
                         claims certainty");
    ("C004", D.Error, "goal with no supporting children");
    ("C005", D.Warning, "goal with a single child (a vacuous `any`, or \
                         indirection under `all`)");
    ("C006", D.Error, "assumption attached to no goal");
    ("C007", D.Warning, Printf.sprintf "argument deeper than %d levels" max_depth);
    ("C008", D.Warning, Printf.sprintf "goal with more than %d children" max_fan_out);
    ("C009", D.Warning, "legs of an `any` goal share evidence, so they are \
                         not independent alternatives");
    ("C010", D.Error, "indentation fault (level jump, or indented root)");
    ("C011", D.Error, "multiple root nodes");
    ("C012", D.Error, "evidence cannot have children") ]

module R = F.Raw

let is_assume raw k = R.kind raw k = R.Assume
let is_evidence raw k = R.kind raw k = R.Evidence
let add acc d = acc := d :: !acc

(* --- the lenient shape -----------------------------------------------------

   Every line hangs under the nearest earlier non-assumption line that is
   shallower than it, whatever other faults the document has, so one
   structural error does not hide the rest.  One stack pass over the
   lines gives each line's [parent] (-1 for a top-level line, a root) and
   its subtree end: every line pops the stack down to its own
   indentation, so the subtree of line [k] is the contiguous range up to
   [ends.(k)], the first later line (assumption or not) that is no
   deeper.  Only non-assumption lines are pushed, so an assumption's end
   is [n]; it has no subtree. *)

let shape raw =
  let n = R.length raw in
  let parent = Array.make n (-1) and ends = Array.make n n in
  let stack = Array.make n 0 and top = ref 0 in
  for k = 0 to n - 1 do
    let indent = R.indent raw k in
    while !top > 0 && R.indent raw stack.(!top - 1) >= indent do
      decr top;
      ends.(stack.(!top)) <- k
    done;
    if !top > 0 then parent.(k) <- stack.(!top - 1);
    if not (is_assume raw k) then begin
      stack.(!top) <- k;
      incr top
    end
  done;
  (parent, ends)

(* C006, C010, C011, C012: where each line hangs. *)
let check_structure acc raw parent =
  for k = 0 to R.length raw - 1 do
    let line = R.line raw k and col = R.id_col raw k in
    let p = parent.(k) in
    if p < 0 then begin
      (* Line 0 is always the first root. *)
      if k > 0 then
        add acc
          (D.make ~code:"C011" ~severity:D.Error ~line ~col
             (Printf.sprintf
                "node %s is a second root: a case document holds one argument"
                (R.id raw k)))
      else if R.indent raw k > 0 then
        add acc
          (D.make ~code:"C010" ~severity:D.Error ~line "root must not be indented");
      if is_assume raw k then
        add acc
          (D.make ~code:"C006" ~severity:D.Error ~line ~col
             (Printf.sprintf
                "assumption %s is attached to no goal (it is at top level)"
                (R.id raw k)))
    end
    else begin
      if R.indent raw k > R.indent raw p + 1 then
        add acc
          (D.make ~code:"C010" ~severity:D.Error ~line
             (Printf.sprintf "indentation jumps more than one level (%d to %d)"
                (R.indent raw p) (R.indent raw k)));
      if is_evidence raw p then
        if is_assume raw k then
          add acc
            (D.make ~code:"C006" ~severity:D.Error ~line ~col
               (Printf.sprintf
                  "assumption %s is attached to evidence %s, not a goal"
                  (R.id raw k) (R.id raw p)))
        else
          add acc
            (D.make ~code:"C012" ~severity:D.Error ~line ~col
               (Printf.sprintf "evidence %s cannot support child %s" (R.id raw p)
                  (R.id raw k)))
    end
  done

(* C001: the document's id table ([Raw.first_ids]) maps each line to the
   first line with the same id; the loader reuses the same table. *)
let check_duplicates acc raw =
  let first = R.first_ids raw in
  for k = 0 to R.length raw - 1 do
    if first.(k) <> k then
      add acc
        (D.make ~code:"C001" ~severity:D.Error ~line:(R.line raw k)
           ~col:(R.id_col raw k)
           (Printf.sprintf "duplicate node id %s (first declared at line %d)"
              (R.id raw k) (R.line raw first.(k))))
  done

let check_values acc raw =
  for k = 0 to R.length raw - 1 do
    let what =
      match R.kind raw k with
      | R.Evidence -> "confidence"
      | R.Assume -> "validity probability"
      | R.All_goal | R.Any_goal -> ""
    in
    if what <> "" then begin
      let v = R.value raw k in
      let line = R.line raw k and col = R.value_col raw k in
      if not (v > 0.0 && v <= 1.0) then
        add acc
          (D.make ~code:"C002" ~severity:D.Error ~line ~col
             (Printf.sprintf "%s %g of %s is outside (0,1]" what v (R.id raw k)))
      else if v = 1.0 then
        add acc
          (D.make ~code:"C003" ~severity:D.Warning ~line ~col
             (Printf.sprintf
                "%s 1.0 of %s claims certainty; the paper's point is that \
                 doubt never vanishes — use a value below 1"
                what (R.id raw k)))
    end
  done

(* C004, C005, C008: each goal's count of non-assumption children. *)
let check_children acc raw parent =
  let n = R.length raw in
  let kids = Array.make n 0 in
  for k = 0 to n - 1 do
    let p = parent.(k) in
    if p >= 0 && not (is_assume raw k) then kids.(p) <- kids.(p) + 1
  done;
  for k = 0 to n - 1 do
    let kind = R.kind raw k in
    if kind = R.All_goal || kind = R.Any_goal then begin
      let n = kids.(k) in
      let line = R.line raw k and col = R.id_col raw k in
      if n = 0 then
        add acc
          (D.make ~code:"C004" ~severity:D.Error ~line ~col
             (Printf.sprintf "goal %s has no supporting children" (R.id raw k)))
      else if n = 1 then
        add acc
          (D.make ~code:"C005" ~severity:D.Warning ~line ~col
             (if kind = R.Any_goal then
                Printf.sprintf
                  "`any` goal %s has a single leg: the alternative is vacuous"
                  (R.id raw k)
              else
                Printf.sprintf
                  "goal %s has a single child: it adds a layer without adding \
                   an argument"
                  (R.id raw k)))
      else if n > max_fan_out then
        add acc
          (D.make ~code:"C008" ~severity:D.Warning ~line ~col
             (Printf.sprintf
                "goal %s combines %d children (more than %d): consider \
                 grouping them into subgoals"
                (R.id raw k) n max_fan_out))
    end
  done

(* C007: a root's depth counts the levels of non-assumption lines in its
   subtree, the root itself being level 1.  An assumption root has depth
   1 and no subtree. *)
let check_depth acc raw parent ends =
  let n = R.length raw in
  let depth = Array.make n 1 in
  for k = 0 to n - 1 do
    let p = parent.(k) in
    if p >= 0 then depth.(k) <- depth.(p) + 1
  done;
  for r = 0 to n - 1 do
    if parent.(r) < 0 && not (is_assume raw r) then begin
      let d = ref 1 in
      for k = r + 1 to ends.(r) - 1 do
        if (not (is_assume raw k)) && depth.(k) > !d then d := depth.(k)
      done;
      if !d > max_depth then
        add acc
          (D.make ~code:"C007" ~severity:D.Warning ~line:(R.line raw r)
             ~col:(R.id_col raw r)
             (Printf.sprintf
                "argument is %d levels deep (more than %d): deep chains \
                 multiply doubt and are hard to review"
                !d max_depth))
    end
  done

(* C009: independence between legs of an `any` goal is what two-leg
   composition (Section 4.2) relies on; the same piece of evidence cited in
   two legs silently breaks it.  Evidence is matched by normalised statement
   text — matching ids are already C001.

   A leg's evidence is the evidence in its subtree range that no other
   evidence encloses (evidence under evidence is C012, and its children
   are not citations).  Each statement is interned to the line that first
   cited it, once; per goal, line-indexed arrays stamped with the goal's
   ticket record which leg cited a key first, as [Graph] does for its
   overlap fractions.

   Statements are normalised by [String.trim] then [String.lowercase_ascii],
   but without copies: the hash and the comparison skip the trimmed blanks
   and fold the case in place, the hash eight bytes at a time. *)

(* [fold_case w] — the eight bytes of [w] with ASCII upper case made
   lower: a byte is upper case when its high bit is clear and its low
   seven bits lie in 0x41..0x5a, found for all eight at once by adding
   0x3f (bit 7 set iff >= 0x41) and 0x25 (bit 7 set iff >= 0x5b); no sum
   carries into the next byte. *)
let[@inline] fold_case w =
  let low = Int64.logand w 0x7f7f7f7f7f7f7f7fL in
  let upper =
    Int64.logand
      (Int64.logand (Int64.add low 0x3f3f3f3f3f3f3f3fL)
         (Int64.lognot (Int64.add low 0x2525252525252525L)))
      (Int64.logand (Int64.lognot w) 0x8080808080808080L)
  in
  Int64.logor w (Int64.shift_right_logical upper 2)

external word : string -> int -> int64 = "%caml_string_get64"

(* The normalised span of [s.[at..at+len)]: its blanks trimmed. *)
let trimmed s at len =
  let stop = F.trim_end s at (at + len) in
  (F.skip_blanks s stop at, stop)

(* The folded bytes mixed as [Intern.span_hash] mixes bytes: equal
   normalised statements have equal trimmed lengths and equal folded
   words, so they hash equal. *)
let span_statement_hash s at len =
  let start, stop = trimmed s at len in
  let h = ref (Intern.mix 0x3bf29ce484222325 (stop - start)) in
  let i = ref start in
  while !i + 8 <= stop do
    h := Intern.mix !h (Int64.to_int (fold_case (word s !i)));
    i := !i + 8
  done;
  while !i < stop do
    h := Intern.mix !h (Char.code (Char.lowercase_ascii (String.unsafe_get s !i)));
    incr i
  done;
  Intern.finish !h

let statement_hash s = span_statement_hash s 0 (String.length s)

let rec folded_equal a i b j n =
  n = 0
  || Char.lowercase_ascii a.[i] = Char.lowercase_ascii b.[j]
     && folded_equal a (i + 1) b (j + 1) (n - 1)

let same_span a ai an b bi bn =
  let a0, a1 = trimmed a ai an and b0, b1 = trimmed b bi bn in
  a1 - a0 = b1 - b0 && folded_equal a a0 b b0 (a1 - a0)

let same_statement a b = same_span a 0 (String.length a) b 0 (String.length b)

(* The statement a C009 key lookup compares against: a probe record read
   by one closure, so a lookup allocates nothing. *)
type probe = { mutable at : int; mutable len : int }

let check_shared_evidence acc raw ends =
  let n = R.length raw in
  let text = R.text raw in
  (* [iter_legs g f] calls [f leg c] for each child line [c] of [g]. *)
  let iter_legs g f =
    let p = ref (g + 1) and leg = ref 0 in
    while !p < ends.(g) do
      if is_assume raw !p then incr p
      else begin
        f !leg !p;
        incr leg;
        p := ends.(!p)
      end
    done
  in
  let iter_leaves c f =
    if is_evidence raw c then f c
    else
      let p = ref (c + 1) in
      while !p < ends.(c) do
        if is_evidence raw !p then begin
          f !p;
          p := ends.(!p)
        end
        else incr p
      done
  in
  let statements = Intern.create n in
  let q = { at = 0; len = 0 } in
  let same j =
    same_span text (R.statement_at raw j) (R.statement_len raw j) text q.at q.len
  in
  (* [key.(e)]: the first line citing [e]'s statement, once interned. *)
  let key = Array.make n (-1) in
  let key_of e =
    if key.(e) < 0 then begin
      q.at <- R.statement_at raw e;
      q.len <- R.statement_len raw e;
      key.(e) <- Intern.intern statements (span_statement_hash text q.at q.len) same e
    end;
    key.(e)
  in
  (* Per key, stamped with the goal's ticket: the first citing leg and
     line, and whether the key has been counted as shared. *)
  let seen = Array.make n (-1) and counted = Array.make n (-1) in
  let first_leg = Array.make n 0 and first_ev = Array.make n 0 in
  for g = 0 to n - 1 do
    if R.kind raw g = R.Any_goal then begin
      let legs = ref 0 in
      iter_legs g (fun _ _ -> incr legs);
      if !legs >= 2 then begin
        (* Pass 1: the goal's overlap fraction — distinct evidence
           statements cited from two or more legs, over all distinct
           statements under the goal.  The same shared/distinct quotient
           [Graph.overlap_fraction] derives from DAG structure, so the
           static warning and the propagation-time correlation floor
           agree on one number. *)
        let distinct = ref 0 and shared = ref 0 in
        iter_legs g (fun leg c ->
            iter_leaves c (fun e ->
                let k = key_of e in
                if seen.(k) <> g then begin
                  seen.(k) <- g;
                  first_leg.(k) <- leg;
                  first_ev.(k) <- e;
                  incr distinct
                end
                else if first_leg.(k) <> leg && counted.(k) <> g then begin
                  counted.(k) <- g;
                  incr shared
                end));
        (* Pass 2: one diagnostic per cross-leg repeat citation, each
           carrying the goal fraction.  With nothing shared there is no
           repeat to report. *)
        if !shared > 0 then begin
          let fraction = float_of_int !shared /. float_of_int !distinct in
          iter_legs g (fun leg c ->
              iter_leaves c (fun e ->
                  let k = key.(e) in
                  if first_leg.(k) <> leg then begin
                    let first = first_ev.(k) in
                    add acc
                      (D.make ~code:"C009" ~severity:D.Warning ~line:(R.line raw e)
                         ~col:(R.id_col raw e)
                         ~data:[ ("overlap_fraction", fraction) ]
                         (Printf.sprintf
                            "evidence %s restates %s (line %d) from another \
                             leg of `any` goal %s: the legs are not \
                             independent, which invalidates multi-leg \
                             composition (%.0f%% of this goal's evidence \
                             is shared)"
                            (R.id raw e) (R.id raw first) (R.line raw first)
                            (R.id raw g) (100.0 *. fraction)))
                  end))
        end
      end
    end
  done

let check_lexed raw =
  if R.length raw = 0 then []
  else begin
    let parent, ends = shape raw in
    let acc = ref [] in
    check_structure acc raw parent;
    check_duplicates acc raw;
    check_values acc raw;
    check_children acc raw parent;
    check_depth acc raw parent ends;
    check_shared_evidence acc raw ends;
    D.sort !acc
  end

let check_raw nodes = check_lexed (R.of_nodes nodes)

let lex text =
  match F.lex text with
  | exception F.Parse_error e ->
    Error
      [ D.make ~code:"C000" ~severity:D.Error ~line:e.line ~col:e.col e.message ]
  | raw when R.length raw = 0 ->
    Error [ D.make ~code:"C000" ~severity:D.Error ~line:0 "empty case document" ]
  | raw -> Ok raw

let check text =
  match lex text with Error diags -> diags | Ok raw -> check_lexed raw
