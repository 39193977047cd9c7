(* Differential tests for the one-pass case loader.  Every document —
   the shipped examples, printed random trees, mutated documents and
   random line soups — goes through both the library and the pre-loader
   pipeline kept in [Case_oracle]:

   - [parse_raw] returns the same raw lines, or raises the same error,
     and the columns [lex] fills hold the same lines field for field,
     their id and statement spans spelling the oracle's strings;
   - [Case_format.graph] raises the same [Parse_error] as the oracle
     parser (line, col, token and message), or returns a graph equal to
     [Graph.of_node (oracle parse)] in size, ids, children, base and
     assumption-validity bits, root bits under all four dependence models
     and root hash, with each node located at its id token, and each
     node's [id_of], [statement_of] and [find] (assumption ids included)
     reading the oracle tree's strings;
   - [Case_format.parse] is the oracle tree;
   - [Case_rules.check], [Audit.case] and [Check.case] return the same
     diagnostics as their pre-change compositions. *)

open Helpers
module F = Casekit.Case_format
module N = Casekit.Node
module G = Casekit.Graph
module D = Analysis.Diagnostic
module O = Case_oracle

let read_file path =
  let path = if Sys.file_exists path then path else Filename.concat ".." path in
  In_channel.with_open_bin path In_channel.input_all

let bits = Int64.bits_of_float
let same_float a b = Int64.equal (bits a) (bits b)

(* --- comparisons, each returning a mismatch description ---------------------- *)

let outcome f =
  match f () with
  | v -> Ok v
  | exception F.Parse_error { line; col; token; message } ->
    Error (Printf.sprintf "%d:%d %S %s" line col token message)

(* Raw nodes hold floats that may be NaN: compare bitwise. *)
let same_raw (a : F.raw_node) (b : F.raw_node) =
  a.line = b.line && a.indent = b.indent && a.id = b.id && a.id_col = b.id_col
  && a.statement = b.statement && a.value_col = b.value_col
  &&
  match (a.item, b.item) with
  | F.Raw_goal x, F.Raw_goal y -> x.combinator = y.combinator
  | F.Raw_evidence x, F.Raw_evidence y -> same_float x.confidence y.confidence
  | F.Raw_assume x, F.Raw_assume y -> same_float x.p_valid y.p_valid
  | _ -> false

module R = F.Raw

(* The columns against the oracle's raw lines: every accessor, the spans
   read out of the text, the record view, and the first-id table against
   a [Hashtbl] of first occurrences. *)
let columns_mismatch text =
  match (outcome (fun () -> F.lex text), outcome (fun () -> O.parse_raw text)) with
  | Ok raw, Ok rows ->
    let s = R.text raw in
    let rows = Array.of_list rows in
    let firsts = Hashtbl.create 16 in
    let first = R.first_ids raw in
    let row_ok k (rn : F.raw_node) =
      if not (Hashtbl.mem firsts rn.id) then Hashtbl.add firsts rn.id k;
      R.line raw k = rn.line
      && R.indent raw k = rn.indent
      && String.sub s (R.id_at raw k) (R.id_len raw k) = rn.id
      && R.id raw k = rn.id
      && String.sub s (R.statement_at raw k) (R.statement_len raw k) = rn.statement
      && R.statement raw k = rn.statement
      && R.id_col raw k = rn.id_col
      && R.value_col raw k = rn.value_col
      && (match (R.kind raw k, rn.item) with
         | R.All_goal, F.Raw_goal { combinator = N.All }
         | R.Any_goal, F.Raw_goal { combinator = N.Any } -> true
         | R.Evidence, F.Raw_evidence { confidence = v } | R.Assume, F.Raw_assume { p_valid = v }
           -> same_float (R.value raw k) v
         | _ -> false)
      && same_raw (R.node raw k) rn
      && first.(k) = Hashtbl.find firsts rn.id
    in
    let rec check k =
      if k = Array.length rows then
        let back = R.to_nodes (R.of_nodes (Array.to_list rows)) in
        if List.for_all2 same_raw back (Array.to_list rows) then None
        else Some "of_nodes round trip"
      else if row_ok k rows.(k) then check (k + 1)
      else Some (Printf.sprintf "columns differ at line index %d" k)
    in
    if R.length raw <> Array.length rows then Some "columns length" else check 0
  | Error a, Error b -> if a = b then None else Some ("lex error " ^ a ^ " vs " ^ b)
  | Ok _, Error e -> Some ("lex accepted; oracle: " ^ e)
  | Error e, Ok _ -> Some ("lex rejected: " ^ e)

(* The oracle tree's (id, statement, assumptions) per node, in the
   postorder node indices follow. *)
let postorder tree =
  let rec go acc = function
    | N.Evidence e -> (e.id, e.statement, []) :: acc
    | N.Goal g ->
      (g.id, g.statement, g.assumptions) :: List.fold_left go acc g.supported_by
  in
  Array.of_list (List.rev (go [] tree))

(* A loaded graph's text against the oracle tree: each node's id and
   statement out of the arena, [find] on every node id, and every
   assumption id interned as an assumption (not a node).  Re-setting an
   assumption to its own validity leaves the graph's bits as they were. *)
let texts_mismatch g tree =
  let nodes = postorder tree in
  let node_ok i (id, statement, assumptions) =
    G.id_of g i = id
    && G.statement_of g i = statement
    && G.find g id = Some i
    && List.for_all
         (fun (a : N.assumption) ->
           G.find g a.aid = None
           &&
           match G.set_assumption g ~id:a.aid ~p_valid:a.p_valid with
           | () -> true
           | exception Not_found -> false)
         assumptions
  in
  if Array.length nodes <> G.size g then Some "texts: size"
  else if not (List.for_all (fun i -> node_ok i nodes.(i)) (List.init (G.size g) Fun.id))
  then Some "texts: id_of/statement_of/find"
  else None

let deps = [ G.Independent; G.Frechet_lower; G.Frechet_upper; G.Correlated 0.4 ]

let graph_mismatch (g, (pos : F.positions)) oracle_tree oracle_raw =
  let r = G.of_node oracle_tree in
  let n = G.size r in
  let first = Hashtbl.create 16 in
  List.iter
    (fun (rn : F.raw_node) ->
      if not (Hashtbl.mem first rn.id) then Hashtbl.add first rn.id (rn.line, rn.id_col))
    oracle_raw;
  let node_ok i =
    G.id_of g i = G.id_of r i
    && G.kind_of g i = G.kind_of r i
    && G.children g i = G.children r i
    && same_float (G.base_confidence g i) (G.base_confidence r i)
    && same_float (G.assumption_validity g i) (G.assumption_validity r i)
    && Hashtbl.find_opt first (G.id_of g i) = Some (pos.lines.(i), pos.cols.(i))
  in
  if G.size g <> n then Some "size"
  else if G.root g <> G.root r then Some "root index"
  else if Array.length pos.lines < n || Array.length pos.cols < n then
    Some "positions length"
  else if not (List.for_all node_ok (List.init n Fun.id)) then Some "node"
  else if
    not
      (List.for_all
         (fun dep -> same_float (G.propagate dep g) (G.propagate dep r))
         deps)
  then Some "root bits"
  else if not (Int64.equal (G.root_hash g) (G.root_hash r)) then Some "root hash"
  else None

let diags_mismatch what a b =
  if List.length a = List.length b && List.for_all2 (fun x y -> D.compare x y = 0) a b
  then None
  else
    Some
      (Printf.sprintf "%s:\n  library %s\n  oracle  %s" what
         (String.concat "\n          " (List.map D.to_string a))
         (String.concat "\n          " (List.map D.to_string b)))

(* [mismatch text] — [None] when the library agrees with the oracle on
   every entry point. *)
let mismatch text =
  let first_some = List.find_map (fun f -> f ()) in
  first_some
    [ (fun () ->
        match (outcome (fun () -> F.parse_raw text), outcome (fun () -> O.parse_raw text)) with
        | Ok a, Ok b ->
          if List.length a = List.length b && List.for_all2 same_raw a b then None
          else Some "parse_raw lines"
        | Error a, Error b -> if a = b then None else Some ("parse_raw error " ^ a ^ " vs " ^ b)
        | Ok _, Error e -> Some ("parse_raw accepted; oracle: " ^ e)
        | Error e, Ok _ -> Some ("parse_raw rejected: " ^ e));
      (fun () -> columns_mismatch text);
      (fun () ->
        let loaded = outcome (fun () -> F.load (F.lex text)) in
        let graph = outcome (fun () -> F.graph text) in
        match (loaded, graph, outcome (fun () -> O.parse text)) with
        | Error a, Error a', Error b ->
          if a = b && a' = b then None else Some ("error " ^ a ^ " vs " ^ b)
        | Ok l, Ok g, Ok tree -> (
          match graph_mismatch l tree (O.parse_raw text) with
          | Some m -> Some ("graph " ^ m)
          | None -> (
            if G.size g <> G.size (fst l) then Some "graph vs load"
            else if F.parse text <> tree then Some "parse tree"
            else
              match texts_mismatch (fst l) tree with
              | Some m -> Some ("load " ^ m)
              | None -> Option.map (( ^ ) "graph ") (texts_mismatch g tree)))
        | _, _, Error e -> Some ("loader accepted; oracle: " ^ e)
        | Error e, _, _ | _, Error e, _ -> Some ("loader rejected: " ^ e));
      (fun () ->
        diags_mismatch "Case_rules.check" (Analysis.Case_rules.check text)
          (O.case_rules_check text));
      (fun () ->
        let options =
          { Analysis.Audit.default_options with target = Some 0.9; dependence = G.Correlated 0.3 }
        in
        diags_mismatch "Audit.case"
          (Analysis.Audit.case ~file:"f.case" ~options text)
          (O.audit_case ~file:"f.case" ~options text));
      (fun () ->
        let checked = Analysis.Check.case ~file:"f.case" text in
        let value, diagnostics = O.check_case ~file:"f.case" text in
        if checked.value <> value then Some "Check.case value"
        else diags_mismatch "Check.case" checked.diagnostics diagnostics) ]

let agrees text =
  match mismatch text with
  | None -> true
  | Some m -> QCheck2.Test.fail_reportf "%s\non document:\n%s" m text

let qcheck_doc ?(count = 200) name gen =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:(fun s -> s) gen agrees)

(* --- corpora ------------------------------------------------------------------- *)

let test_examples () =
  List.iter
    (fun path ->
      match mismatch (read_file path) with
      | None -> ()
      | Some m -> Alcotest.failf "%s: %s" path m)
    [ "examples/shutdown.case"; "examples/bad_shutdown.case"; "examples/unattainable.case" ]

(* Hand-written documents for every error the strict parser raises, and
   the orders in which two faults meet. *)
let edge_documents =
  [ "";
    "\n\n# only comments\n";
    "  goal G \"indented root\" all\n  evidence E \"e\" 0.9";
    "assume A \"root\" 0.5";
    "assume A \"root\" 0.5\nassume A \"dup\" 0.5";
    "evidence E \"root\" 0.5\n  evidence F \"after\" 0.5";
    "evidence E \"root\" 1.5";
    "evidence E \"root\" 1.5\n  evidence E \"dup after\" 0.5";
    "goal G \"g\" all";
    "goal G \"g\" all\n  assume A \"only an assumption\" 0.9";
    "goal G \"g\" all\n  goal H \"h\" all\n  evidence E \"e\" 0.9";
    "goal G \"g\" all\n  evidence E \"e\" 0.9\ngoal H \"second\" all";
    "goal G \"g\" all\ngoal H \"second root, G unsupported\" all";
    "goal G \"g\" all\n  goal H \"h\" any\ngoal R \"second\" all";
    "goal G \"g\" all\n  evidence E \"e\" 0.9\n    evidence F \"under evidence\" 0.9";
    "goal G \"g\" all\n  evidence E \"e\" 0.9\n      evidence F \"jump\" 0.9";
    "goal G \"g\" all\n  goal H \"h\" all\n      assume A \"jump\" 0.9";
    "goal G \"g\" all\n  evidence E \"e\" 1.5\n  evidence E \"dup\" 0.5";
    "goal G \"g\" all\n  evidence E \"e\" nan";
    "goal G \"g\" all\n  evidence E \"e\" 0.5\n  assume G \"dup of the goal\" 0.5";
    "goal G \"g\" all\n  goal H \"h\" all\n    evidence G \"dup of open goal\" 0.5";
    "goal G \"g\" all\r\n  evidence E \"crlf\" 0.9\r\n";
    "goal G \"g\" all\n\t# tab comment\n  evidence E \"e\" 0.9";
    "goal G \"g\" all\n\tevidence E \"tab indent\" 0.9";
    "goal G \"g\"any\n  evidence E \"e\"0.5\n  evidence F \"f\"   0.25  ";
    "goal G \"g\" all\n   evidence E \"odd\" 0.9";
    "goal G \"g\" maybe";
    "goal G\n  evidence E \"e\" 0.9";
    "goal G \"unterminated all\n  evidence E \"e\" 0.9";
    "widget W \"w\" 0.5";
    "goal G \"g\" maybe\nwidget W \"w\" 0.5\n  evidence E \"e\"";
    "goal G \"g\" all\n  evidence E \"e\"";
    "goal G \"g\" all\n  assume A \"a\"\n  evidence E \"e\" 0.9";
    "goal G \"g\" all\n  assume A \"a\" x\n  evidence E \"e\" 0.9";
    "goal G \"g\" all\n  evidence E \"e\" 0x1p-2\n  evidence F \"f\" 1_0e-1";
    "goal G \"g\" all\n  evidence E \"long value\" 0.50000000000000000000000000000000000000001\n  \
     evidence F \"32 bytes\" 0.5000000000000000000000000000001\n  \
     evidence H \"long junk\" 0.5000000000000000000000000000000000000000x";
    "goal G \"g\" any\n  goal L1 \"leg\" all\n    evidence E1 \"Shared\" 0.9\n    \
     evidence E2 \"x\" 0.9\n  goal L2 \"leg\" all\n    evidence E3 \" shared \" 0.9\n    \
     assume A \"a\" 0.9\n    evidence E4 \"SHARED\" 0.9" ]

let test_edge_documents () =
  List.iter
    (fun text ->
      match mismatch text with
      | None -> ()
      | Some m -> Alcotest.failf "%S: %s" text m)
    edge_documents

(* Random case trees, printed. *)
let gen_tree =
  let open QCheck2.Gen in
  let counter = ref 0 in
  let fresh prefix =
    incr counter;
    Printf.sprintf "%s%d" prefix !counter
  in
  let conf = map (fun u -> 0.01 +. (0.98 *. u)) (float_bound_inclusive 1.0) in
  let statement = oneofl [ "ev"; "Shared"; " shared"; "SHARED "; "goal"; "as" ] in
  let leaf =
    map2 (fun c s -> N.evidence ~id:(fresh "E") ~statement:s ~confidence:c) conf statement
  in
  let rec tree depth =
    if depth = 0 then leaf
    else
      frequency
        [ (1, leaf);
          ( 3,
            let* comb = oneofl [ N.All; N.Any ] in
            let* children = list_size (int_range 1 3) (tree (depth - 1)) in
            let* ps = list_size (int_range 0 2) conf in
            let assumptions =
              List.map (fun p -> N.assumption ~id:(fresh "A") ~statement:"as" ~p_valid:p) ps
            in
            pure (N.goal ~id:(fresh "G") ~statement:"goal" ~combinator:comb ~assumptions children) )
        ]
  in
  tree 4

(* Mutations of a printed tree: each is an operation code and two
   positions, reduced modulo the line count when applied. *)
let literals =
  [| "nan"; "NaN"; "1.5"; "0"; "-0.25"; "inf"; "1e400"; "0x1p-2"; "1.0"; ""; "any"; "all";
     "maybe"; "0.5 extra" |]

let value_split line =
  match String.rindex_opt line '"' with
  | Some q -> (String.sub line 0 (q + 1), String.sub line (q + 1) (String.length line - q - 1))
  | None -> (line, "")

(* [words line] — leading spaces, kind, id and the rest (from the space
   after the id), when the line has that shape. *)
let words line =
  let n = String.length line in
  let rec skip i = if i < n && line.[i] = ' ' then skip (i + 1) else i in
  let rec word i = if i < n && line.[i] <> ' ' then word (i + 1) else i in
  let k0 = skip 0 in
  let k1 = word k0 in
  let i0 = skip k1 in
  let i1 = word i0 in
  if k0 = k1 || i0 = i1 then None
  else
    Some
      ( String.sub line 0 k0,
        String.sub line k0 (k1 - k0),
        String.sub line i0 (i1 - i0),
        String.sub line i1 (n - i1) )

let mutate lines (op, a, b) =
  let n = List.length lines in
  if n = 0 then lines
  else
    let a = a mod n and b = b mod n in
    let la = List.nth lines a and lb = List.nth lines b in
    let set i v = List.mapi (fun j l -> if j = i then v else l) lines in
    let insert i v = List.concat (List.mapi (fun j l -> if j = i then [ v; l ] else [ l ]) lines) in
    match op mod 12 with
    | 0 -> List.filteri (fun j _ -> j <> a) lines (* drop *)
    | 1 -> insert a la (* duplicate *)
    | 2 -> set a (String.make (1 + (b mod 4)) ' ' ^ la) (* indent deeper *)
    | 3 ->
      (* dedent by one or two spaces *)
      let k = 1 + (b mod 2) in
      if String.length la >= k && String.sub la 0 k = String.make k ' ' then
        set a (String.sub la k (String.length la - k))
      else lines
    | 4 ->
      (* swap the trailing values of two lines *)
      let pa, va = value_split la and pb, vb = value_split lb in
      set b (pb ^ va) |> fun l -> List.mapi (fun j x -> if j = a then pa ^ vb else x) l
    | 5 -> set a (fst (value_split la) ^ " " ^ literals.(b mod Array.length literals))
    | 6 -> insert a (if b mod 2 = 0 then "goal R2 \"second root\" all" else "evidence R3 \"x\" 0.5")
    | 7 -> lines @ [ "goal R4 \"trailing root\" any"; "  evidence R5 \"x\" 0.5" ]
    | 8 -> (
      (* give line a the id of line b *)
      match (words la, words lb) with
      | Some (pad, kind, _, rest), Some (_, _, id, _) ->
        set a (pad ^ kind ^ " " ^ id ^ rest)
      | _ -> lines)
    | 9 -> insert a (if b mod 2 = 0 then "" else "  # comment")
    | 10 -> (
      (* change the node kind *)
      let kinds = [| "goal"; "evidence"; "assume"; "widget" |] in
      match words la with
      | Some (pad, _, id, rest) -> set a (pad ^ kinds.(b mod 4) ^ " " ^ id ^ rest)
      | None -> lines)
    | _ -> set a (la ^ if b mod 2 = 0 then "\r" else "\t")

let gen_mutated =
  let open QCheck2.Gen in
  let* tree = gen_tree in
  let* ops = list_size (int_range 1 4) (triple nat nat nat) in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' (F.print tree)) in
  pure (String.concat "\n" (List.fold_left mutate lines ops) ^ "\n")

(* Line soups for C009: indentation wanders (with jumps), every kind
   appears, statements repeat across legs with case and whitespace
   variants, evidence gets children, ids sometimes repeat. *)
let gen_soup =
  let open QCheck2.Gen in
  let statements =
    [| "shared test"; "Shared Test"; "  shared test  "; "SHARED TEST\t"; "proof"; "Proof ";
       "review"; "unique"; "shared\012test"; "SHARED\012Test "; "\xC9tude"; "\xE9tude" |]
  in
  let line k prev =
    let* step = frequency [ (3, pure 1); (3, pure 0); (2, pure (-1)); (1, pure (-2)); (1, pure 2) ] in
    let indent = if k = 0 then 0 else max 0 (prev + step) in
    let* kind = frequency [ (3, pure "goal_any"); (1, pure "goal_all"); (4, pure "evidence"); (1, pure "assume") ] in
    let* s = int_bound (Array.length statements - 1) in
    let* reuse = int_bound 12 in
    let* v = oneofl [ "0.9"; "0.5"; "0.99"; "1.0"; "1.5"; "nan" ] in
    let id = if reuse = 0 && k > 0 then "N0" else Printf.sprintf "N%d" k in
    let body =
      match kind with
      | "goal_any" -> Printf.sprintf "goal %s \"%s\" any" id statements.(s)
      | "goal_all" -> Printf.sprintf "goal %s \"%s\" all" id statements.(s)
      | "evidence" -> Printf.sprintf "evidence %s \"%s\" %s" id statements.(s) v
      | _ -> Printf.sprintf "assume %s \"%s\" %s" id statements.(s) v
    in
    pure (indent, String.make (2 * indent) ' ' ^ body)
  in
  let* n = int_range 1 25 in
  let rec go k prev acc =
    if k = n then pure (String.concat "\n" (List.rev acc))
    else
      let* indent, l = line k prev in
      go (k + 1) indent (l :: acc)
  in
  go 0 0 []

(* Well-formed documents; the statement pool makes legs cite the same
   evidence, for the C009 emission path. *)
let gen_printed = QCheck2.Gen.map F.print gen_tree

let test_c009_direct =
  qcheck ~count:300 "C009 over the raw array = list-based C009 over the forest" gen_soup
    (fun text ->
      let raw = F.parse_raw text in
      let lib =
        List.filter (fun (d : D.t) -> d.code = "C009") (Analysis.Case_rules.check_raw raw)
      in
      match diags_mismatch "C009" lib (O.shared_evidence raw) with
      | None -> true
      | Some m -> QCheck2.Test.fail_reportf "%s\non document:\n%s" m text)

(* --- hostile input -------------------------------------------------------------- *)

(* Byte strings from an alphabet weighted toward the grammar and the bytes
   that have broken hand-written lexers: quotes (often unterminated),
   comment marks, CR, tab, form feed, NUL, high bytes, and float spellings
   that [float_of_string] reads in surprising ways.  Each line is built
   slot by slot (indent, kind, id, statement, value), and any slot may
   instead draw from the hostile alphabet, so documents that load, and
   faults deep inside ones that nearly do, both come up.  Nothing forces
   a final newline. *)
let gen_hostile =
  let open QCheck2.Gen in
  let hostile =
    frequency
      [ ( 4,
          oneofl
            [ "\""; "#"; "\r"; "\t"; "\012"; "\000"; "_"; "nan"; "1e309"; "0x1p-3"; " \"open";
              "\"\""; "1_0e-1"; "" ] );
        (1, map (fun b -> String.make 1 (Char.chr (0x80 + b))) (int_bound 127)) ]
  in
  let slot good = frequency [ (30, oneofl good); (1, hostile) ] in
  let line first =
    let* indent = slot (if first then [ "" ] else [ "  "; "  "; "    "; "    "; "" ]) in
    let* kind, value =
      oneofl
        [ ("goal ", [ "any"; "all"; "" ]); ("goal ", [ "all" ]);
          ("evidence ", [ "0.5"; "0.9"; "1.5"; "1.0" ]); ("evidence ", [ "0.9" ]);
          ("assume ", [ "0.9"; "0.5" ]) ]
    in
    let* kind = slot [ kind ] in
    let* id = slot [ "G1 "; "G2 "; "G3 "; "E1 "; "E2 "; "E3 "; "E4 "; "E5 "; "A1 "; "A2 " ] in
    let* statement = slot [ "\"s\" "; "\"S \" "; "\"\" "; "\"a # b\" " ] in
    let* value = slot value in
    let* tail = slot [ ""; ""; " "; "\r" ] in
    pure (indent ^ kind ^ id ^ statement ^ value ^ tail)
  in
  let* first = line true in
  let* rest = list_size (int_range 0 10) (line false) in
  let* last = oneofl [ ""; "\n" ] in
  pure (String.concat "\n" (first :: rest) ^ last)

let same_graph g h =
  let n = G.size g in
  G.size h = n && G.root g = G.root h
  && List.for_all
       (fun i ->
         G.id_of g i = G.id_of h i
         && G.kind_of g i = G.kind_of h i
         && G.children g i = G.children h i
         && same_float (G.base_confidence g i) (G.base_confidence h i)
         && same_float (G.assumption_validity g i) (G.assumption_validity h i))
       (List.init n Fun.id)
  && Int64.equal (G.root_hash g) (G.root_hash h)

let hostile text =
  (match (outcome (fun () -> F.parse_raw text), outcome (fun () -> O.parse_raw text)) with
  | Ok a, Ok b ->
    if not (List.length a = List.length b && List.for_all2 same_raw a b) then
      QCheck2.Test.fail_report "parse_raw lines differ from the oracle's"
  | Error a, Error b ->
    if a <> b then QCheck2.Test.fail_reportf "parse_raw error %s vs oracle %s" a b
  | Ok _, Error e -> QCheck2.Test.fail_reportf "parse_raw accepted; oracle: %s" e
  | Error e, Ok _ -> QCheck2.Test.fail_reportf "parse_raw rejected: %s" e);
  (match (outcome (fun () -> F.graph text), outcome (fun () -> fst (F.load (F.lex text)))) with
  | Ok a, Ok b ->
    if not (same_graph a b) then QCheck2.Test.fail_report "streamed graph differs from load's"
  | Error a, Error b ->
    if a <> b then QCheck2.Test.fail_reportf "streamed error %s vs load's %s" a b
  | Ok _, Error e -> QCheck2.Test.fail_reportf "streamed load accepted; load: %s" e
  | Error e, Ok _ -> QCheck2.Test.fail_reportf "streamed load rejected: %s" e);
  (match columns_mismatch text with
  | None -> ()
  | Some m -> QCheck2.Test.fail_report m);
  (match (outcome (fun () -> F.graph text), outcome (fun () -> O.parse text)) with
  | Ok g, Ok tree -> (
    match texts_mismatch g tree with None -> () | Some m -> QCheck2.Test.fail_report m)
  | _ -> ());
  (match Analysis.Case_rules.check text with
  | _ -> ()
  | exception e -> QCheck2.Test.fail_reportf "Case_rules.check raised %s" (Printexc.to_string e));
  true

let test_hostile =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~name:"hostile bytes: lexer = oracle, streamed = load, lint total"
       ~print:(Printf.sprintf "%S") gen_hostile hostile)

(* A graph that keeps its document as its text reads back the ids and
   statements, and finds the ids, that a graph whose builder copied them
   into an arena does: [G.of_node] of the oracle's tree, built from
   strings.  Both loaders, on the examples and on hostile mutations of
   them; a document the oracle rejects has no graph to compare. *)
let examples =
  List.map read_file
    [ "examples/shutdown.case"; "examples/bad_shutdown.case"; "examples/unattainable.case" ]

let texts_agree text tree =
  let arena = G.of_node tree in
  let probes =
    "" :: "#0"
    :: List.concat_map
         (fun (id, _, assumptions) ->
           id :: (id ^ "x") :: List.map (fun (a : N.assumption) -> a.aid) assumptions)
         (Array.to_list (postorder tree))
  in
  let agrees what g =
    let n = G.size arena in
    if G.size g <> n then QCheck2.Test.fail_reportf "%s: size" what;
    for i = 0 to n - 1 do
      if G.id_of g i <> G.id_of arena i || G.statement_of g i <> G.statement_of arena i then
        QCheck2.Test.fail_reportf "%s: text of node %d" what i
    done;
    List.iter
      (fun id ->
        if G.find g id <> G.find arena id then QCheck2.Test.fail_reportf "%s: find %S" what id)
      probes
  in
  agrees "graph" (F.graph text);
  agrees "load" (fst (F.load (F.lex text)));
  true

let same_texts text =
  match outcome (fun () -> O.parse text) with
  | Error _ -> true
  | Ok tree -> texts_agree text tree

(* bad_shutdown.case has a duplicate id: no graph to compare. *)
let test_document_texts () =
  List.iter
    (fun path ->
      let text = read_file path in
      check_true path (texts_agree text (O.parse text)))
    [ "examples/shutdown.case"; "examples/unattainable.case" ]

let test_hostile_texts =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"texts in the document = texts in an arena"
       ~print:(Printf.sprintf "%S") (gen_hostile_text examples) same_texts)

(* --- C009's in-place normalisation --------------------------------------------- *)

(* Mixed-case ASCII, the five blanks [String.trim] strips, and high bytes;
   half the pairs are the same text re-cased and re-padded, so equal
   normalisations are common. *)
let gen_statement_pair =
  let open QCheck2.Gen in
  let byte =
    frequency
      [ (6, map Char.chr (int_range 0x41 0x5a));
        (6, map Char.chr (int_range 0x61 0x7a));
        (3, oneofl [ ' '; '\t'; '\n'; '\r'; '\012' ]);
        (2, map Char.chr (int_range 0x80 0xff)) ]
  in
  let text = string_size ~gen:byte (int_range 0 12) in
  let blanks = string_size ~gen:(oneofl [ ' '; '\t'; '\n'; '\r'; '\012' ]) (int_range 0 3) in
  let variant s =
    let* flips = list_repeat (String.length s) bool in
    let* l = blanks and* r = blanks in
    let flipped =
      String.mapi
        (fun i c ->
          if List.nth flips i then
            if Char.lowercase_ascii c = c then Char.uppercase_ascii c else Char.lowercase_ascii c
          else c)
        s
    in
    pure (l ^ flipped ^ r)
  in
  let* a = text in
  let* b = oneof [ text; variant a ] in
  pure (a, b)

let test_normalisation =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~name:"C009 in-place comparison = normalise, equal hashes"
       ~print:(fun (a, b) -> Printf.sprintf "%S, %S" a b)
       gen_statement_pair
       (fun (a, b) ->
         let equal = String.equal (O.normalise a) (O.normalise b) in
         Analysis.Case_rules.same_statement a b = equal
         && ((not equal)
            || Analysis.Case_rules.statement_hash a = Analysis.Case_rules.statement_hash b)))

(* One large `any` goal whose legs cite many spellings of a few
   statements among many distinct ones: thousands of keys in C009's
   table, most lookups landing on an occupied slot. *)
let test_c009_many_spellings () =
  let rng = Random.State.make [| 15 |] in
  let bases = [| "proof of x"; "review"; "Tested on rig"; "\xC9tude"; "a\012b" |] in
  let spelling () =
    let b = bases.(Random.State.int rng (Array.length bases)) in
    let pad () = List.nth [ ""; " "; "\t"; "  \r"; "\012" ] (Random.State.int rng 5) in
    pad ()
    ^ String.map (fun c -> if Random.State.bool rng then Char.uppercase_ascii c else c) b
    ^ pad ()
  in
  let buf = Buffer.create 100_000 in
  Buffer.add_string buf "goal G \"root\" any\n";
  let line = ref 1 in
  for leg = 0 to 39 do
    Printf.bprintf buf "  goal L%d \"leg %d\" %s\n" leg leg (if leg mod 3 = 0 then "any" else "all");
    incr line;
    for e = 0 to 54 do
      let statement =
        if Random.State.int rng 3 = 0 then spelling () else Printf.sprintf "fact %d.%d" leg e
      in
      Printf.bprintf buf "    evidence E%d_%d \"%s\" 0.9\n" leg e statement;
      incr line
    done
  done;
  check_true "at least 2,000 lines" (!line >= 2_000);
  let raw = F.parse_raw (Buffer.contents buf) in
  let lib =
    List.filter (fun (d : D.t) -> d.code = "C009") (Analysis.Case_rules.check_raw raw)
  in
  let oracle = O.shared_evidence raw in
  check_true "C009 fires" (oracle <> []);
  match diags_mismatch "C009" lib oracle with None -> () | Some m -> Alcotest.fail m

(* --- ids as spans ---------------------------------------------------------------- *)

(* [Intern.span_equal] is byte equality of two spans, and equal bytes hash
   equal wherever they sit: the graph's id index finds, in its arena, ids
   a document's table hashed in the text.  Half the pairs copy the first
   span into the second string at another offset. *)
let gen_spans =
  let open QCheck2.Gen in
  let text = string_size ~gen:(oneofl [ 'a'; 'b'; '\t'; '\xC9'; '\000' ]) (int_range 0 40) in
  let* a = text and* b = text in
  let* i = int_bound (String.length a) in
  let* n = int_bound (String.length a - i) in
  let* copy = bool and* pad = string_size ~gen:(pure 'x') (int_range 0 9) in
  let b = if copy then pad ^ String.sub a i n ^ b else b in
  let* j = int_bound (String.length b) in
  let j = if copy then String.length pad else j in
  let* m = int_bound (String.length b - j) in
  pure (a, i, b, j, if copy then n else min n m)

let test_spans =
  qcheck ~count:2000 "id spans: in-place equality and hash" gen_spans (fun (a, i, b, j, n) ->
      let equal = String.sub a i n = String.sub b j n in
      Casekit.Intern.span_equal a i b j n = equal
      && ((not equal) || Casekit.Intern.span_hash a i n = Casekit.Intern.span_hash b j n))

(* --- builder text --------------------------------------------------------------- *)

(* Ids and statements the lexer never produces: tabs, high bytes, empty
   statements, anonymous nodes, ids that are prefixes of others; then
   enough nodes with long statements that the arena is reallocated
   several times, and every id is still found and still a duplicate. *)
let test_builder_texts () =
  let b = G.Builder.create ~capacity:2 ~ids:1 () in
  let named =
    [ ("E\t1", ""); ("\xC9tude", "\xE9t\xE9 \"quoted\""); ("E", "plain"); ("E\t", "tab");
      ("\xC9tudE", "") ]
  in
  let leaves =
    List.map (fun (id, statement) -> G.Builder.evidence b ~id ~statement ~confidence:0.9 ()) named
  in
  let anonymous = List.init 3 (fun _ -> G.Builder.evidence b ~confidence:0.8 ()) in
  let a = N.assumption ~id:"A\xFF" ~statement:"" ~p_valid:0.95 in
  check_raises_invalid "duplicate of a tab id" (fun () ->
      ignore (G.Builder.evidence b ~id:"E\t1" ~confidence:0.5 ()));
  check_raises_invalid "duplicate of a high-byte id" (fun () ->
      ignore (G.Builder.evidence b ~id:"\xC9tude" ~statement:"other" ~confidence:0.5 ()));
  let root =
    G.Builder.goal b ~id:"G" ~statement:"root" ~assumptions:[ a ] ~combinator:N.All
      (Array.of_list (leaves @ anonymous))
  in
  let g = G.Builder.build b ~root in
  List.iteri
    (fun i (id, statement) ->
      Alcotest.(check string) "id_of" id (G.id_of g i);
      Alcotest.(check string) "statement_of" statement (G.statement_of g i);
      Alcotest.(check (option int)) "find" (Some i) (G.find g id))
    named;
  List.iter
    (fun i ->
      Alcotest.(check string) "anonymous id" "" (G.id_of g i);
      Alcotest.(check string) "no statement" "" (G.statement_of g i))
    anonymous;
  Alcotest.(check (option int)) "anonymous is not found" None (G.find g "");
  Alcotest.(check (option int)) "the assumption is not a node" None (G.find g "A\xFF");
  G.set_assumption g ~id:"A\xFF" ~p_valid:0.5;
  check_true "to_node keeps every string"
    (match G.to_node g with
    | N.Goal { id = "G"; statement = "root"; assumptions = [ { aid = "A\xFF"; _ } ]; _ } -> true
    | _ -> false);
  let b = G.Builder.create ~capacity:2 ~ids:1 () in
  let long i = String.make 100 (Char.chr (0x80 + (i mod 128))) in
  let ids = Array.init 2_000 (Printf.sprintf "N\t%d") in
  let nodes =
    Array.mapi (fun i id -> G.Builder.evidence b ~id ~statement:(long i) ~confidence:0.9 ()) ids
  in
  check_raises_invalid "duplicate after the arena grew" (fun () ->
      ignore (G.Builder.evidence b ~id:ids.(0) ~confidence:0.9 ()));
  let g = G.Builder.build b ~root:(G.Builder.goal b ~id:"R" ~combinator:N.Any nodes) in
  check_true "every id and statement survives the growth"
    (Array.for_all
       (fun i -> G.find g ids.(i) = Some i && G.statement_of g i = long i && G.id_of g i = ids.(i))
       nodes)

(* --- printing ------------------------------------------------------------------- *)

(* One buffer, no string per line, the same bytes: random trees and every
   shipped example that loads print exactly as the per-line printer did. *)
let test_print_bytes () =
  List.iter
    (fun path ->
      let text = read_file path in
      match O.parse text with
      | exception (F.Parse_error _ | Invalid_argument _) -> ()
      | tree ->
        Alcotest.(check string) path (O.print tree) (F.print (F.parse text)))
    [ "examples/shutdown.case"; "examples/bad_shutdown.case"; "examples/unattainable.case" ]

let test_print_random =
  qcheck ~count:300 "print writes the per-line printer's bytes" gen_tree (fun tree ->
      F.print tree = O.print tree)

(* --- allocation budget ---------------------------------------------------------- *)

(* A named case like the confbench fixture, without randomness: a root
   [any] over [legs] complete [fanout]-ary goal trees of [depth] levels,
   ids G<i>/E<i>/A<i> in document order, statements unique to each node,
   an assumption on every 97th goal. *)
let named_case ~legs ~fanout ~depth =
  let buf = Buffer.create 4096 in
  let goals = ref 0 and leaves = ref 0 and assumptions = ref 0 in
  let rec node indent level =
    let pad = String.make (2 * indent) ' ' in
    if level = 0 then begin
      let e = !leaves in
      incr leaves;
      Printf.bprintf buf "%sevidence E%d \"Evidence E%d supports its parent claim\" %.17g\n" pad e e
        (0.999 +. (float_of_int (e mod 997) *. 1e-7))
    end
    else begin
      let g = !goals in
      incr goals;
      Printf.bprintf buf "%sgoal G%d \"Claim G%d holds\" %s\n" pad g g
        (if indent = 0 || g mod 5 = 0 then "any" else "all");
      if g mod 97 = 96 then begin
        let a = !assumptions in
        incr assumptions;
        Printf.bprintf buf "%s  assume A%d \"Assumption A%d about G%d is valid\" %.17g\n" pad a a
          g
          (0.9995 +. (float_of_int (a mod 89) *. 1e-6))
      end;
      for _ = 1 to if indent = 0 then legs else fanout do
        node (indent + 1) (level - 1)
      done
    end
  in
  node 0 (depth + 1);
  Buffer.contents buf

(* Words allocated (minor heap), promoted, and allocated in the major
   heap (promoted words included) per document line by [f text], from an
   empty minor heap and with a minor collection at the end, so what
   survives the call is counted whatever the heap size.
   Deterministic: no clock is read. *)
let words_per_line f text =
  let lines = float_of_int (List.length (String.split_on_char '\n' text) - 1) in
  Gc.full_major ();
  let m0, p0, j0 = Gc.counters () in
  ignore (Sys.opaque_identity (f text));
  Gc.minor ();
  let m1, p1, j1 = Gc.counters () in
  ((m1 -. m0) /. lines, (p1 -. p0) /. lines, (j1 -. j0) /. lines)

(* Bounds: the words measured on this 10^4-node case under the test
   build (4.31 minor and 0.018 promoted a line for the streamed graph,
   16.1 and 0.018 for the audit, 0.63 and 0.0012 for the semantic and
   structural graph passes alone) with 25% headroom.  With a record, a
   list cell and two strings per line the graph took 37.8 minor and 8.6
   promoted words a line, and the audit 87.2 and 23.3; with a boxed
   float and an option per vacuous-leg probe, a closure per finding and
   a fresh kill-set array per node, the audit took 45.3 and 0.154, and
   the graph passes 29.8 and 0.125.

   Major-heap words (promoted ones included) count the n-sized columns:
   14.5 a line for the streamed graph and 47.5 for the audit, bounded
   with the same headroom.  When the graph copied its ids and statements
   into an arena, and [build] copied every column to its length and
   derived the parent CSR, level schedule, dirty maps and hash column at
   once, they took 34.8 and 62.0. *)
let test_allocation_budget () =
  let text = named_case ~legs:9 ~fanout:10 ~depth:3 in
  check_true "10^4 nodes" (G.size (F.graph text) = 10_000);
  let options =
    { Analysis.Audit.default_options with target = Some 0.9; dependence = G.Correlated 0.3 }
  in
  let within ?(max_major = infinity) what (minor, promoted, major) (max_minor, max_promoted) =
    if not (minor <= max_minor && promoted <= max_promoted && major <= max_major) then
      Alcotest.failf
        "%s: %.3f minor, %.3f promoted and %.3f major words a line (bounds %.3f, %.3f, %.3f)"
        what minor promoted major max_minor max_promoted max_major
  in
  within "Case_format.graph" (words_per_line F.graph text) (5.37, 0.0275) ~max_major:18.2;
  within "Audit.case" (words_per_line (Analysis.Audit.case ~options) text) (20.2, 0.0225)
    ~max_major:59.4;
  let g = F.graph text in
  within "Audit.graph"
    (words_per_line (fun _ -> Analysis.Audit.graph ~options g) text)
    (0.79, 0.0015)

let suite =
  [ case "examples agree with the oracle" test_examples;
    case "edge documents agree with the oracle" test_edge_documents;
    qcheck_doc ~count:300 "printed random trees agree with the oracle" gen_printed;
    qcheck_doc ~count:500 "mutated documents agree with the oracle" gen_mutated;
    qcheck_doc ~count:500 "line soups agree with the oracle" gen_soup;
    test_c009_direct;
    test_hostile;
    test_normalisation;
    case "C009 over many spellings of a few statements" test_c009_many_spellings;
    test_spans;
    case "builder text: odd bytes, anonymous nodes, arena growth" test_builder_texts;
    case "examples: texts in the document = texts in an arena" test_document_texts;
    test_hostile_texts;
    case "print writes the examples' bytes" test_print_bytes;
    test_print_random;
    case "allocation per line stays within budget" test_allocation_budget ]
