module D = Diagnostic

type kind = Case | Belief

let kind_of_path path =
  match Filename.extension path with
  | ".case" -> Some Case
  | ".belief" -> Some Belief
  | _ -> None

module F = Casekit.Case_format

(* [first_meaningful text 0] — the trimmed span [(start, stop)] of the
   first line the case lexer reads as a node, found by offsets without
   splitting or copying the document. *)
let rec first_meaningful text start =
  let len = String.length text in
  if start > len then None
  else
    let stop = F.line_end text len start in
    if F.is_node_line text start stop then
      let k = F.skip_blanks text stop start in
      Some (k, F.trim_end text k stop)
    else first_meaningful text (stop + 1)

(* A case document's first meaningful line starts with a node kind; anything
   else is taken for a belief (whose checker will complain precisely). *)
let sniff text =
  match first_meaningful text 0 with
  | Some (start, stop)
    when List.exists
           (fun prefix ->
             let n = String.length prefix in
             stop - start >= n && String.sub text start n = prefix)
           [ "goal "; "evidence "; "assume " ] ->
    Case
  | _ -> Belief

let check_string ?file kind text =
  let diags =
    match kind with
    | Case -> Case_rules.check text
    | Belief -> Belief_rules.check text
  in
  match file with Some f -> D.with_file f diags | None -> diags

(* [input_all], not [in_channel_length]: a pipe or /dev/stdin has no
   length to seek to. *)
let read_file path = In_channel.with_open_text path In_channel.input_all

let check_file path =
  match read_file path with
  | exception Sys_error msg ->
    [ D.make ~file:path ~code:"F000" ~severity:D.Error ~line:0 msg ]
  | text ->
    let kind = match kind_of_path path with Some k -> k | None -> sniff text in
    check_string ~file:path kind text

(* --- parse + check in one call -------------------------------------------- *)

type 'a checked = { value : 'a option; diagnostics : D.t list }

let case ?file text =
  let with_file diags =
    match file with Some f -> D.with_file f diags | None -> diags
  in
  (* One lex, shared by the rules and the strict build. *)
  match Case_rules.lex text with
  | Error diags -> { value = None; diagnostics = with_file diags }
  | Ok raw ->
    let value =
      match Casekit.Case_format.graph_of_raw raw with
      | g -> Some (Casekit.Graph.to_node g)
      | exception Casekit.Case_format.Parse_error _ -> None
    in
    { value; diagnostics = with_file (Case_rules.check_lexed raw) }

let belief ?file text =
  let diagnostics = check_string ?file Belief text in
  let value =
    match Elicit.Belief_format.parse text with
    | b -> Some b
    | exception Elicit.Belief_format.Parse_error _ -> None
    | exception Invalid_argument _ -> None
  in
  { value; diagnostics }

let codes_table () =
  let render (code, severity, description) =
    Printf.sprintf "  %-5s %-8s %s" code (D.severity_to_string severity)
      description
  in
  String.concat "\n"
    (("Case rules:" :: List.map render Case_rules.codes)
    @ ("" :: "Belief rules:" :: List.map render Belief_rules.codes)
    @ ("" :: "Audit rules (confcase audit):" :: List.map render Audit.codes))
  ^ "\n"
