(* Parse errors carry the 1-based line and column of the offending token and
   the token itself.  The historical { line; message } fields are a subset of
   the new payload, so code written against the old shape keeps compiling. *)
exception
  Parse_error of { line : int; col : int; token : string; message : string }

let fail ?(col = 1) ?(token = "") line message =
  raise (Parse_error { line; col; token; message })

(* --- raw (lenient) layer --------------------------------------------------

   One component per source line, tokenised but with no semantic invariant
   enforced: weights that do not sum to 1, out-of-range atoms, non-positive
   sigmas and missing or surplus fields all survive into the raw form so the
   static analyser (lib/analysis) can report them as diagnostics.  Only
   lexical faults — an unreadable token — raise. *)

type raw_component = {
  line : int;  (* 1-based source line *)
  col : int;  (* 1-based column of the kind token *)
  kind : string;  (* "atom" | "lognormal" | "gamma" | "beta" | "uniform" *)
  fields : (string * float) list;  (* key/value pairs in source order;
                                      an atom's location is field "value" *)
  weight : float option;
}

let float_of line col token =
  match Numerics.Decimal.of_string_opt token with
  | Some v -> v
  | None ->
    fail ~col ~token line (Printf.sprintf "expected a number, got %S" token)

(* Tokenise a line into (1-based column, token) pairs. *)
let tokenize raw =
  let n = String.length raw in
  let rec go i acc =
    if i >= n then List.rev acc
    else if raw.[i] = ' ' then go (i + 1) acc
    else begin
      let rec word_end j = if j < n && raw.[j] <> ' ' then word_end (j + 1) else j in
      let j = word_end i in
      go j ((i + 1, String.sub raw i (j - i)) :: acc)
    end
  in
  go 0 []

(* Consume "key value" pairs from the token list. *)
let rec parse_fields line fields tokens =
  match tokens with
  | [] -> (List.rev fields, None)
  | [ (col, "weight") ] -> fail ~col ~token:"weight" line "weight needs a value"
  | (_, "weight") :: (wcol, w) :: rest ->
    if rest <> [] then
      fail ~col:(fst (List.hd rest)) ~token:(snd (List.hd rest)) line
        "weight must come last";
    (List.rev fields, Some (float_of line wcol w))
  | (_, key) :: (vcol, value) :: rest ->
    parse_fields line ((key, float_of line vcol value) :: fields) rest
  | [ (col, key) ] ->
    fail ~col ~token:key line (Printf.sprintf "field %S needs a value" key)

let parse_raw_component line col kind tokens =
  match kind with
  | "atom" ->
    (match tokens with
    | (vcol, x) :: rest ->
      let weight =
        match rest with
        | [] -> None
        | [ (wcol, w) ] -> Some (float_of line wcol w)
        | [ (_, "weight"); (wcol, w) ] -> Some (float_of line wcol w)
        | (ecol, etok) :: _ ->
          fail ~col:ecol ~token:etok line
            "atom takes a location and an optional weight"
      in
      { line; col; kind; fields = [ ("value", float_of line vcol x) ]; weight }
    | [] -> fail ~col ~token:kind line "atom needs a location")
  | "lognormal" | "gamma" | "beta" | "uniform" ->
    let fields, weight = parse_fields line [] tokens in
    { line; col; kind; fields; weight }
  | other ->
    fail ~col ~token:other line (Printf.sprintf "unknown component %S" other)

let parse_raw text =
  String.split_on_char '\n' text
  |> List.mapi (fun i raw -> (i + 1, raw))
  |> List.filter (fun (_, raw) ->
         let t = String.trim raw in
         t <> "" && t.[0] <> '#')
  |> List.map (fun (line, raw) ->
         match tokenize raw with
         | (col, kind) :: rest -> parse_raw_component line col kind rest
         | [] -> fail line "empty component")

(* --- strict layer --------------------------------------------------------- *)

let field raw name =
  match List.assoc_opt name raw.fields with
  | Some v -> v
  | None ->
    fail ~col:raw.col ~token:raw.kind raw.line
      (Printf.sprintf "missing field %S" name)

let guard raw f =
  match f () with
  | v -> v
  | exception Invalid_argument msg -> fail ~col:raw.col raw.line msg

(* [component_of_raw raw] — build the distribution component, enforcing the
   family invariants the raw layer deliberately skipped. *)
let component_of_raw raw =
  match raw.kind with
  | "atom" -> Dist.Mixture.Atom (field raw "value")
  | "lognormal" ->
    let sigma = field raw "sigma" in
    let d =
      match
        (List.assoc_opt "mode" raw.fields, List.assoc_opt "mu" raw.fields)
      with
      | Some mode, None ->
        guard raw (fun () -> Dist.Lognormal.of_mode_sigma ~mode ~sigma)
      | None, Some mu -> guard raw (fun () -> Dist.Lognormal.make ~mu ~sigma)
      | Some _, Some _ ->
        fail ~col:raw.col ~token:raw.kind raw.line
          "give either mode or mu, not both"
      | None, None ->
        fail ~col:raw.col ~token:raw.kind raw.line "lognormal needs mode or mu"
    in
    Dist.Mixture.Cont d
  | "gamma" ->
    let shape = field raw "shape" and rate = field raw "rate" in
    Dist.Mixture.Cont (guard raw (fun () -> Dist.Gamma_d.make ~shape ~rate))
  | "beta" ->
    let a = field raw "a" and b = field raw "b" in
    Dist.Mixture.Cont (guard raw (fun () -> Dist.Beta_d.make ~a ~b))
  | "uniform" ->
    let lo = field raw "lo" and hi = field raw "hi" in
    Dist.Mixture.Cont (guard raw (fun () -> Dist.Uniform_d.make ~lo ~hi))
  | other ->
    (* parse_raw only lets the five kinds through; keep a real error anyway. *)
    fail ~col:raw.col ~token:other raw.line
      (Printf.sprintf "unknown component %S" other)

let parse text =
  let raws = parse_raw text in
  if raws = [] then fail 0 "empty belief";
  let parsed =
    List.map (fun raw -> (raw, component_of_raw raw, raw.weight)) raws
  in
  let explicit =
    List.fold_left
      (fun acc (_, _, w) -> acc +. Option.value ~default:0.0 w)
      0.0 parsed
  in
  let implicit_count =
    List.length (List.filter (fun (_, _, w) -> w = None) parsed)
  in
  let first_line = (List.hd raws).line in
  let components =
    match implicit_count with
    | 0 -> List.map (fun (_, c, w) -> (Option.get w, c)) parsed
    | 1 ->
      let remaining = 1.0 -. explicit in
      if remaining <= 0.0 then fail first_line "explicit weights already reach 1";
      List.map
        (fun (_, c, w) ->
          match w with Some w -> (w, c) | None -> (remaining, c))
        parsed
    | _ -> fail first_line "at most one component may omit its weight"
  in
  match Dist.Mixture.make components with
  | m -> m
  | exception Invalid_argument msg -> fail first_line msg

let parse_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  parse text

let print belief =
  let render_cont (d : Dist.t) =
    (* Recognise the supported families from their recorded names. *)
    try Scanf.sscanf d.name "lognormal(mu=%g, sigma=%g)" (fun mu sigma ->
        Printf.sprintf "lognormal mu %.17g sigma %.17g" mu sigma)
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> (
      try Scanf.sscanf d.name "gamma(shape=%g, rate=%g)" (fun shape rate ->
          Printf.sprintf "gamma shape %.17g rate %.17g" shape rate)
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> (
        try Scanf.sscanf d.name "beta(a=%g, b=%g)" (fun a b ->
            Printf.sprintf "beta a %.17g b %.17g" a b)
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> (
          try Scanf.sscanf d.name "uniform(%g, %g)" (fun lo hi ->
              Printf.sprintf "uniform lo %.17g hi %.17g" lo hi)
          with Scanf.Scan_failure _ | Failure _ | End_of_file ->
            invalid_arg
              (Printf.sprintf "Belief_format.print: unprintable component %s"
                 d.name))))
  in
  Dist.Mixture.components belief
  |> List.map (fun (w, c) ->
         match (c : Dist.Mixture.component) with
         | Dist.Mixture.Atom x ->
           Printf.sprintf "atom %.17g weight %.17g" x w
         | Dist.Mixture.Cont d ->
           Printf.sprintf "%s weight %.17g" (render_cont d) w)
  |> String.concat "\n"
  |> fun s -> s ^ "\n"
