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

(* Lenient tree used only by the rules: every raw node is attached to the
   nearest enclosing shallower node, whatever other faults the document
   has, so one structural error does not hide the rest. *)
type tree = {
  rn : F.raw_node;
  mutable kids : tree list;  (* reverse source order *)
  mutable assumes : F.raw_node list;
}

let is_assume rn = match rn.F.item with F.Raw_assume _ -> true | _ -> false

let build_forest nodes =
  let diags = ref [] in
  let emit ~code ~severity ~line ?col msg =
    diags := D.make ~code ~severity ~line ?col msg :: !diags
  in
  let roots = ref [] in
  let stack = ref [] in
  List.iteri
    (fun i rn ->
      let rec pop () =
        match !stack with
        | top :: rest when top.rn.F.indent >= rn.F.indent ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      let t = { rn; kids = []; assumes = [] } in
      (match !stack with
      | [] ->
        if !roots <> [] then
          emit ~code:"C011" ~severity:D.Error ~line:rn.F.line ~col:rn.F.id_col
            (Printf.sprintf
               "node %s is a second root: a case document holds one argument"
               rn.F.id)
        else if i = 0 && rn.F.indent > 0 then
          emit ~code:"C010" ~severity:D.Error ~line:rn.F.line
            "root must not be indented";
        if is_assume rn then
          emit ~code:"C006" ~severity:D.Error ~line:rn.F.line ~col:rn.F.id_col
            (Printf.sprintf
               "assumption %s is attached to no goal (it is at top level)"
               rn.F.id);
        roots := t :: !roots
      | parent :: _ ->
        if rn.F.indent > parent.rn.F.indent + 1 then
          emit ~code:"C010" ~severity:D.Error ~line:rn.F.line
            (Printf.sprintf "indentation jumps more than one level (%d to %d)"
               parent.rn.F.indent rn.F.indent);
        (match parent.rn.F.item with
        | F.Raw_evidence _ ->
          if is_assume rn then
            emit ~code:"C006" ~severity:D.Error ~line:rn.F.line
              ~col:rn.F.id_col
              (Printf.sprintf
                 "assumption %s is attached to evidence %s, not a goal"
                 rn.F.id parent.rn.F.id)
          else
            emit ~code:"C012" ~severity:D.Error ~line:rn.F.line ~col:rn.F.id_col
              (Printf.sprintf "evidence %s cannot support child %s"
                 parent.rn.F.id rn.F.id)
        | _ -> ());
        if is_assume rn then parent.assumes <- rn :: parent.assumes
        else parent.kids <- t :: parent.kids);
      if not (is_assume rn) then stack := t :: !stack)
    nodes;
  (List.rev !roots, List.rev !diags)

let check_duplicates ~count nodes =
  let seen = Hashtbl.create count in
  List.filter_map
    (fun rn ->
      match Hashtbl.find_opt seen rn.F.id with
      | Some first ->
        Some
          (D.make ~code:"C001" ~severity:D.Error ~line:rn.F.line
             ~col:rn.F.id_col
             (Printf.sprintf "duplicate node id %s (first declared at line %d)"
                rn.F.id first))
      | None ->
        Hashtbl.add seen rn.F.id rn.F.line;
        None)
    nodes

let check_values nodes =
  List.concat_map
    (fun rn ->
      let value =
        match rn.F.item with
        | F.Raw_evidence { confidence } -> Some ("confidence", confidence)
        | F.Raw_assume { p_valid } -> Some ("validity probability", p_valid)
        | F.Raw_goal _ -> None
      in
      match value with
      | None -> []
      | Some (what, v) ->
        if not (v > 0.0 && v <= 1.0) then
          [ D.make ~code:"C002" ~severity:D.Error ~line:rn.F.line
              ~col:rn.F.value_col
              (Printf.sprintf "%s %g of %s is outside (0,1]" what v rn.F.id) ]
        else if v = 1.0 then
          [ D.make ~code:"C003" ~severity:D.Warning ~line:rn.F.line
              ~col:rn.F.value_col
              (Printf.sprintf
                 "%s 1.0 of %s claims certainty; the paper's point is that \
                  doubt never vanishes — use a value below 1"
                 what rn.F.id) ]
        else [])
    nodes

let rec check_shape t =
  let own =
    match t.rn.F.item with
    | F.Raw_goal { combinator } ->
      let n = List.length t.kids in
      if n = 0 then
        [ D.make ~code:"C004" ~severity:D.Error ~line:t.rn.F.line
            ~col:t.rn.F.id_col
            (Printf.sprintf "goal %s has no supporting children" t.rn.F.id) ]
      else if n = 1 then
        [ D.make ~code:"C005" ~severity:D.Warning ~line:t.rn.F.line
            ~col:t.rn.F.id_col
            (match combinator with
            | Casekit.Node.Any ->
              Printf.sprintf
                "`any` goal %s has a single leg: the alternative is vacuous"
                t.rn.F.id
            | Casekit.Node.All ->
              Printf.sprintf
                "goal %s has a single child: it adds a layer without adding \
                 an argument"
                t.rn.F.id) ]
      else if n > max_fan_out then
        [ D.make ~code:"C008" ~severity:D.Warning ~line:t.rn.F.line
            ~col:t.rn.F.id_col
            (Printf.sprintf
               "goal %s combines %d children (more than %d): consider \
                grouping them into subgoals"
               t.rn.F.id n max_fan_out) ]
      else []
    | _ -> []
  in
  own @ List.concat_map check_shape (List.rev t.kids)

let rec depth t =
  1 + List.fold_left (fun acc k -> max acc (depth k)) 0 t.kids

let check_depth root =
  let d = depth root in
  if d > max_depth then
    [ D.make ~code:"C007" ~severity:D.Warning ~line:root.rn.F.line
        ~col:root.rn.F.id_col
        (Printf.sprintf
           "argument is %d levels deep (more than %d): deep chains multiply \
            doubt and are hard to review"
           d max_depth) ]
  else []

(* C009: independence between legs of an `any` goal is what two-leg
   composition (Section 4.2) relies on; the same piece of evidence cited in
   two legs silently breaks it.  Evidence is matched by normalised statement
   text — matching ids are already C001.

   The pass runs over the raw lines as an array.  In the lenient forest
   every line pops the stack down to its own indentation, so the subtree
   of line [k] is the contiguous range up to [ends.(k)], the first later
   line (assumption or not) that is no deeper.  A leg's evidence is the
   evidence in its range that no other evidence encloses (evidence under
   evidence is C012, and its children are not citations).  Each statement
   is interned to an int key once; per goal, key-indexed arrays stamped
   with the goal's ticket record which leg cited a key first, as [Graph]
   does for its overlap fractions. *)

let normalise s = String.lowercase_ascii (String.trim s)

(* Statements keyed by their raw text and matched under [normalise], so
   the table holds no normalised copies: on a 10^5-node case those copies
   alone raise the audit's peak RSS by about 4 MB. *)
module Statement = Hashtbl.Make (struct
  type t = string

  let equal a b = String.equal (normalise a) (normalise b)
  let hash s = Hashtbl.hash (normalise s)
end)

let check_shared_evidence raw =
  let n = Array.length raw in
  let ends = Array.make n n in
  let stack = Array.make n 0 and top = ref 0 in
  for k = 0 to n - 1 do
    let indent = raw.(k).F.indent in
    while !top > 0 && raw.(stack.(!top - 1)).F.indent >= indent do
      decr top;
      ends.(stack.(!top)) <- k
    done;
    if not (is_assume raw.(k)) then begin
      stack.(!top) <- k;
      incr top
    end
  done;
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
  let keys = Statement.create n in
  let key = Array.make n (-1) in
  let key_of e =
    if key.(e) < 0 then begin
      let s = raw.(e).F.statement in
      key.(e) <-
        (match Statement.find_opt keys s with
        | Some k -> k
        | None ->
          let k = Statement.length keys in
          Statement.add keys s k;
          k)
    end;
    key.(e)
  in
  (* Per key, stamped with the goal's ticket: the first citing leg and
     line, and whether the key has been counted as shared. *)
  let seen = Array.make n (-1) and counted = Array.make n (-1) in
  let first_leg = Array.make n 0 and first_ev = Array.make n 0 in
  let diags = ref [] in
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
                    diags :=
                      D.make ~code:"C009" ~severity:D.Warning ~line:ev.F.line
                        ~col:ev.F.id_col
                        ~data:[ ("overlap_fraction", fraction) ]
                        (Printf.sprintf
                           "evidence %s restates %s (line %d) from another \
                            leg of `any` goal %s: the legs are not \
                            independent, which invalidates multi-leg \
                            composition (%.0f%% of this goal's evidence \
                            is shared)"
                           ev.F.id first.F.id first.F.line raw.(g).F.id
                           (100.0 *. fraction))
                      :: !diags
                  end))
        end
      end
    | _ -> ()
  done;
  !diags

let check_raw nodes =
  match nodes with
  | [] -> []
  | _ ->
    let raw = Array.of_list nodes in
    let roots, structural = build_forest nodes in
    structural
    @ check_duplicates ~count:(Array.length raw) nodes
    @ check_values nodes
    @ List.concat_map check_shape roots
    @ List.concat_map check_depth roots
    @ check_shared_evidence raw
    |> D.sort

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
