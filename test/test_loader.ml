(* Differential tests for the one-pass case loader.  Every document —
   the shipped examples, printed random trees, mutated documents and
   random line soups — goes through both the library and the pre-loader
   pipeline kept in [Case_oracle]:

   - [parse_raw] returns the same raw lines, or raises the same error;
   - [Case_format.graph] raises the same [Parse_error] as the oracle
     parser (line, col, token and message), or returns a graph equal to
     [Graph.of_node (oracle parse)] in size, ids, children, base and
     assumption-validity bits, root bits under all four dependence models
     and root hash, with each node located at its id token;
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
  else if Array.length pos.lines <> n || Array.length pos.cols <> n then
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
      (fun () ->
        let loaded = outcome (fun () -> F.load (F.parse_raw text)) in
        let graph = outcome (fun () -> F.graph text) in
        match (loaded, graph, outcome (fun () -> O.parse text)) with
        | Error a, Error a', Error b ->
          if a = b && a' = b then None else Some ("error " ^ a ^ " vs " ^ b)
        | Ok l, Ok g, Ok tree -> (
          match graph_mismatch l tree (O.parse_raw text) with
          | Some m -> Some ("graph " ^ m)
          | None ->
            if G.size g <> G.size (fst l) then Some "graph vs load"
            else if F.parse text <> tree then Some "parse tree"
            else None)
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
       "review"; "unique" |]
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

let suite =
  [ case "examples agree with the oracle" test_examples;
    case "edge documents agree with the oracle" test_edge_documents;
    qcheck_doc ~count:300 "printed random trees agree with the oracle" gen_printed;
    qcheck_doc ~count:500 "mutated documents agree with the oracle" gen_mutated;
    qcheck_doc ~count:500 "line soups agree with the oracle" gen_soup;
    test_c009_direct ]
