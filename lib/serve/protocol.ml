type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* --- parsing ----------------------------------------------------------------- *)

type state = { src : string; mutable pos : int }

let fail st msg =
  raise (Parse_error (Printf.sprintf "at byte %d: %s" st.pos msg))

let peek st = if st.pos < String.length st.src then st.src.[st.pos] else '\255'

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    match peek st with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance st
  done

let expect st c =
  if peek st = c then advance st
  else fail st (Printf.sprintf "expected %C" c)

let expect_word st w =
  let n = String.length w in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = w then
    st.pos <- st.pos + n
  else fail st (Printf.sprintf "expected %s" w)

(* UTF-8 encode one scalar value into [buf]. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex4 st =
  let v = ref 0 in
  for _ = 1 to 4 do
    let c = peek st in
    let d =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail st "bad \\u escape"
    in
    v := (!v lsl 4) lor d;
    advance st
  done;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | '\255' -> fail st "unterminated string"
    | '"' -> advance st
    | '\\' ->
      advance st;
      (match peek st with
      | '"' -> Buffer.add_char buf '"'; advance st
      | '\\' -> Buffer.add_char buf '\\'; advance st
      | '/' -> Buffer.add_char buf '/'; advance st
      | 'b' -> Buffer.add_char buf '\b'; advance st
      | 'f' -> Buffer.add_char buf '\012'; advance st
      | 'n' -> Buffer.add_char buf '\n'; advance st
      | 'r' -> Buffer.add_char buf '\r'; advance st
      | 't' -> Buffer.add_char buf '\t'; advance st
      | 'u' ->
        advance st;
        let cp = hex4 st in
        if cp >= 0xD800 && cp <= 0xDBFF then begin
          (* High surrogate: a low surrogate must follow. *)
          expect st '\\';
          expect st 'u';
          let lo = hex4 st in
          if lo < 0xDC00 || lo > 0xDFFF then fail st "unpaired surrogate";
          add_utf8 buf
            (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
        end
        else if cp >= 0xDC00 && cp <= 0xDFFF then fail st "unpaired surrogate"
        else add_utf8 buf cp
      | _ -> fail st "bad escape");
      go ()
    | c when Char.code c < 0x20 -> fail st "raw control character in string"
    | c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  if peek st = '-' then advance st;
  while (match peek st with '0' .. '9' -> true | _ -> false) do advance st done;
  if peek st = '.' then begin
    advance st;
    while (match peek st with '0' .. '9' -> true | _ -> false) do advance st done
  end;
  (match peek st with
  | 'e' | 'E' ->
    advance st;
    (match peek st with '+' | '-' -> advance st | _ -> ());
    while (match peek st with '0' .. '9' -> true | _ -> false) do advance st done
  | _ -> ());
  match Numerics.Decimal.of_span st.src start (st.pos - start) with
  | x -> x
  | exception Failure _ ->
    fail st (Printf.sprintf "bad number %S" (String.sub st.src start (st.pos - start)))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | '{' ->
    advance st;
    skip_ws st;
    if peek st = '}' then begin advance st; Obj [] end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        fields := (k, v) :: !fields;
        skip_ws st;
        match peek st with
        | ',' -> advance st; members ()
        | '}' -> advance st
        | _ -> fail st "expected ',' or '}'"
      in
      members ();
      Obj (List.rev !fields)
    end
  | '[' ->
    advance st;
    skip_ws st;
    if peek st = ']' then begin advance st; Arr [] end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value st in
        items := v :: !items;
        skip_ws st;
        match peek st with
        | ',' -> advance st; elements ()
        | ']' -> advance st
        | _ -> fail st "expected ',' or ']'"
      in
      elements ();
      Arr (List.rev !items)
    end
  | '"' -> Str (parse_string st)
  | 't' -> expect_word st "true"; Bool true
  | 'f' -> expect_word st "false"; Bool false
  | 'n' -> expect_word st "null"; Null
  | '-' | '0' .. '9' -> Num (parse_number st)
  | '\255' -> fail st "unexpected end of input"
  | c -> fail st (Printf.sprintf "unexpected %C" c)

let parse s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage after value";
  v

(* --- printing ---------------------------------------------------------------- *)

(* Shortest decimal that round-trips the float64: try increasing
   precision until re-parsing restores the exact bits.  %.17g always
   does, so the loop terminates. *)
let print_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else begin
    let bits = Int64.bits_of_float x in
    let rec go p =
      let s = Printf.sprintf "%.*g" p x in
      if p >= 17 || Int64.equal (Int64.bits_of_float (Numerics.Decimal.of_string s)) bits
      then s
      else go (p + 1)
    in
    go 15
  end

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let print v =
  let buf = Buffer.create 128 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool true -> Buffer.add_string buf "true"
    | Bool false -> Buffer.add_string buf "false"
    | Num x ->
      if not (Float.is_finite x) then Buffer.add_string buf "null"
      else Buffer.add_string buf (print_float x)
    | Str s -> escape_string buf s
    | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          go v)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          go v)
        fields;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* --- accessors --------------------------------------------------------------- *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let get_string = function Str s -> Some s | _ -> None
let get_num = function Num x -> Some x | _ -> None

(* The bounds are [-2^62, 2^62): [Int.to_float max_int] rounds up to
   2^62, which [int_of_float] would wrap to [min_int]. *)
let get_int = function
  | Num x when Float.is_integer x && x >= Int.to_float min_int && x < 0x1p62 ->
    Some (int_of_float x)
  | _ -> None

let get_bool = function Bool b -> Some b | _ -> None

let hex_of_bits b = Printf.sprintf "0x%016Lx" b

let bits_of_hex s =
  if String.length s = 18 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then
    let ok = ref true in
    for i = 2 to 17 do
      match s.[i] with
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
      | _ -> ok := false
    done;
    if !ok then Int64.of_string_opt s else None
  else None
