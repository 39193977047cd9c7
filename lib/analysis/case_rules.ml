module D = Diagnostic
module F = Casekit.Case_format

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

let is_assume rn = match rn.F.item with F.Raw_assume _ -> true | _ -> false
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
  let n = Array.length raw in
  let parent = Array.make n (-1) and ends = Array.make n n in
  let stack = Array.make n 0 and top = ref 0 in
  for k = 0 to n - 1 do
    let indent = raw.(k).F.indent in
    while !top > 0 && raw.(stack.(!top - 1)).F.indent >= indent do
      decr top;
      ends.(stack.(!top)) <- k
    done;
    if !top > 0 then parent.(k) <- stack.(!top - 1);
    if not (is_assume raw.(k)) then begin
      stack.(!top) <- k;
      incr top
    end
  done;
  (parent, ends)

(* C006, C010, C011, C012: where each line hangs. *)
let check_structure acc raw parent =
  Array.iteri
    (fun k (rn : F.raw_node) ->
      let p = parent.(k) in
      if p < 0 then begin
        (* Line 0 is always the first root. *)
        if k > 0 then
          add acc
            (D.make ~code:"C011" ~severity:D.Error ~line:rn.line ~col:rn.id_col
               (Printf.sprintf
                  "node %s is a second root: a case document holds one argument"
                  rn.id))
        else if rn.indent > 0 then
          add acc
            (D.make ~code:"C010" ~severity:D.Error ~line:rn.line
               "root must not be indented");
        if is_assume rn then
          add acc
            (D.make ~code:"C006" ~severity:D.Error ~line:rn.line ~col:rn.id_col
               (Printf.sprintf
                  "assumption %s is attached to no goal (it is at top level)"
                  rn.id))
      end
      else begin
        let up = raw.(p) in
        if rn.indent > up.F.indent + 1 then
          add acc
            (D.make ~code:"C010" ~severity:D.Error ~line:rn.line
               (Printf.sprintf "indentation jumps more than one level (%d to %d)"
                  up.F.indent rn.indent));
        match up.F.item with
        | F.Raw_evidence _ ->
          if is_assume rn then
            add acc
              (D.make ~code:"C006" ~severity:D.Error ~line:rn.line ~col:rn.id_col
                 (Printf.sprintf
                    "assumption %s is attached to evidence %s, not a goal" rn.id
                    up.F.id))
          else
            add acc
              (D.make ~code:"C012" ~severity:D.Error ~line:rn.line ~col:rn.id_col
                 (Printf.sprintf "evidence %s cannot support child %s" up.F.id
                    rn.id))
        | _ -> ()
      end)
    raw

(* C001 and C009 match lines by a key (an id, a normalised statement):
   each interns its line indices in a [Casekit.Intern] table, so keys are
   compared only when their hashes agree and no bucket is allocated per
   line.  A line interns to the first line with an equal key. *)

let check_duplicates acc raw =
  let ids = Casekit.Intern.create (Array.length raw) in
  Array.iteri
    (fun k (rn : F.raw_node) ->
      let same j = String.equal raw.(j).F.id rn.id in
      let first = Casekit.Intern.intern ids (Hashtbl.hash rn.id) same k in
      if first <> k then
        add acc
          (D.make ~code:"C001" ~severity:D.Error ~line:rn.line ~col:rn.id_col
             (Printf.sprintf "duplicate node id %s (first declared at line %d)"
                rn.id raw.(first).F.line)))
    raw

let check_values acc raw =
  Array.iter
    (fun (rn : F.raw_node) ->
      let value =
        match rn.item with
        | F.Raw_evidence { confidence } -> Some ("confidence", confidence)
        | F.Raw_assume { p_valid } -> Some ("validity probability", p_valid)
        | F.Raw_goal _ -> None
      in
      match value with
      | None -> ()
      | Some (what, v) ->
        if not (v > 0.0 && v <= 1.0) then
          add acc
            (D.make ~code:"C002" ~severity:D.Error ~line:rn.line ~col:rn.value_col
               (Printf.sprintf "%s %g of %s is outside (0,1]" what v rn.id))
        else if v = 1.0 then
          add acc
            (D.make ~code:"C003" ~severity:D.Warning ~line:rn.line
               ~col:rn.value_col
               (Printf.sprintf
                  "%s 1.0 of %s claims certainty; the paper's point is that \
                   doubt never vanishes — use a value below 1"
                  what rn.id)))
    raw

(* C004, C005, C008: each goal's count of non-assumption children. *)
let check_children acc raw parent =
  let n = Array.length raw in
  let kids = Array.make n 0 in
  for k = 0 to n - 1 do
    let p = parent.(k) in
    if p >= 0 && not (is_assume raw.(k)) then kids.(p) <- kids.(p) + 1
  done;
  Array.iteri
    (fun k (rn : F.raw_node) ->
      match rn.item with
      | F.Raw_goal { combinator } ->
        let n = kids.(k) in
        if n = 0 then
          add acc
            (D.make ~code:"C004" ~severity:D.Error ~line:rn.line ~col:rn.id_col
               (Printf.sprintf "goal %s has no supporting children" rn.id))
        else if n = 1 then
          add acc
            (D.make ~code:"C005" ~severity:D.Warning ~line:rn.line ~col:rn.id_col
               (match combinator with
               | Casekit.Node.Any ->
                 Printf.sprintf
                   "`any` goal %s has a single leg: the alternative is vacuous"
                   rn.id
               | Casekit.Node.All ->
                 Printf.sprintf
                   "goal %s has a single child: it adds a layer without adding \
                    an argument"
                   rn.id))
        else if n > max_fan_out then
          add acc
            (D.make ~code:"C008" ~severity:D.Warning ~line:rn.line ~col:rn.id_col
               (Printf.sprintf
                  "goal %s combines %d children (more than %d): consider \
                   grouping them into subgoals"
                  rn.id n max_fan_out))
      | _ -> ())
    raw

(* C007: a root's depth counts the levels of non-assumption lines in its
   subtree, the root itself being level 1.  An assumption root has depth
   1 and no subtree. *)
let check_depth acc raw parent ends =
  let n = Array.length raw in
  let depth = Array.make n 1 in
  for k = 0 to n - 1 do
    let p = parent.(k) in
    if p >= 0 then depth.(k) <- depth.(p) + 1
  done;
  Array.iteri
    (fun r (rn : F.raw_node) ->
      if parent.(r) < 0 && not (is_assume rn) then begin
        let d = ref 1 in
        for k = r + 1 to ends.(r) - 1 do
          if (not (is_assume raw.(k))) && depth.(k) > !d then d := depth.(k)
        done;
        if !d > max_depth then
          add acc
            (D.make ~code:"C007" ~severity:D.Warning ~line:rn.line ~col:rn.id_col
               (Printf.sprintf
                  "argument is %d levels deep (more than %d): deep chains \
                   multiply doubt and are hard to review"
                  !d max_depth))
      end)
    raw

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
   and fold the case byte by byte. *)

(* FNV-1a over the folded bytes, finished with a shift so the low bits,
   which pick the slot, depend on every byte. *)
let statement_hash s =
  let stop = F.trim_end s 0 (String.length s) in
  let h = ref 0x3bf29ce484222325 in
  for i = F.skip_blanks s stop 0 to stop - 1 do
    h := (!h lxor Char.code (Char.lowercase_ascii s.[i])) * 0x100000001b3
  done;
  (!h lxor (!h lsr 29)) land max_int

let rec folded_equal a i b j n =
  n = 0
  || Char.lowercase_ascii a.[i] = Char.lowercase_ascii b.[j]
     && folded_equal a (i + 1) b (j + 1) (n - 1)

let same_statement a b =
  let a1 = F.trim_end a 0 (String.length a) and b1 = F.trim_end b 0 (String.length b) in
  let a0 = F.skip_blanks a a1 0 and b0 = F.skip_blanks b b1 0 in
  a1 - a0 = b1 - b0 && folded_equal a a0 b b0 (a1 - a0)

let check_shared_evidence acc raw ends =
  let n = Array.length raw in
  (* [iter_legs g f] calls [f leg c] for each child line [c] of [g]. *)
  let iter_legs g f =
    let p = ref (g + 1) and leg = ref 0 in
    while !p < ends.(g) do
      if is_assume raw.(!p) then incr p
      else begin
        f !leg !p;
        incr leg;
        p := ends.(!p)
      end
    done
  in
  let iter_leaves c f =
    match raw.(c).F.item with
    | F.Raw_evidence _ -> f c
    | _ ->
      let p = ref (c + 1) in
      while !p < ends.(c) do
        match raw.(!p).F.item with
        | F.Raw_evidence _ ->
          f !p;
          p := ends.(!p)
        | _ -> incr p
      done
  in
  let statements = Casekit.Intern.create n in
  (* [key.(e)]: the first line citing [e]'s statement, once interned. *)
  let key = Array.make n (-1) in
  let key_of e =
    if key.(e) < 0 then begin
      let s = raw.(e).F.statement in
      let same j = same_statement raw.(j).F.statement s in
      key.(e) <- Casekit.Intern.intern statements (statement_hash s) same e
    end;
    key.(e)
  in
  (* Per key, stamped with the goal's ticket: the first citing leg and
     line, and whether the key has been counted as shared. *)
  let seen = Array.make n (-1) and counted = Array.make n (-1) in
  let first_leg = Array.make n 0 and first_ev = Array.make n 0 in
  for g = 0 to n - 1 do
    match raw.(g).F.item with
    | F.Raw_goal { combinator = Casekit.Node.Any } ->
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
                    let ev = raw.(e) and first = raw.(first_ev.(k)) in
                    add acc
                      (D.make ~code:"C009" ~severity:D.Warning ~line:ev.F.line
                         ~col:ev.F.id_col
                         ~data:[ ("overlap_fraction", fraction) ]
                         (Printf.sprintf
                            "evidence %s restates %s (line %d) from another \
                             leg of `any` goal %s: the legs are not \
                             independent, which invalidates multi-leg \
                             composition (%.0f%% of this goal's evidence \
                             is shared)"
                            ev.F.id first.F.id first.F.line raw.(g).F.id
                            (100.0 *. fraction)))
                  end))
        end
      end
    | _ -> ()
  done

let check_raw nodes =
  match nodes with
  | [] -> []
  | _ ->
    let raw = Array.of_list nodes in
    let parent, ends = shape raw in
    let acc = ref [] in
    check_structure acc raw parent;
    check_duplicates acc raw;
    check_values acc raw;
    check_children acc raw parent;
    check_depth acc raw parent ends;
    check_shared_evidence acc raw ends;
    D.sort !acc

let lex text =
  match F.parse_raw text with
  | exception F.Parse_error e ->
    Error
      [ D.make ~code:"C000" ~severity:D.Error ~line:e.line ~col:e.col e.message ]
  | [] ->
    Error [ D.make ~code:"C000" ~severity:D.Error ~line:0 "empty case document" ]
  | nodes -> Ok nodes

let check text =
  match lex text with Error diags -> diags | Ok nodes -> check_raw nodes
