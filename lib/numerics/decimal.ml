(* A token is scanned once.  A plain spelling yields its significand [w]
   (the first 18 significant digits in a native int, a 19th kept apart)
   and its decimal exponent [q], value = w * 10^q; anything else goes to
   [float_of_string] on a copy.  Leading zeros are not significant
   digits, and fraction digits lower [q] whether significant or not. *)

external unsafe_word : string -> int -> int64 = "%caml_string_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let fallback s at len = float_of_string (String.sub s at len)

(* 10^0 .. 10^22: every one is exact in a float64. *)
let pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12;
     1e13; 1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

(* Entry [k] of the power-of-five table, [k] a byte offset. *)
let[@inline] table_word k =
  let w = unsafe_word Pow5_table.table k in
  if Sys.big_endian then swap64 w else w

(* The high 64 bits of the unsigned 128-bit product [a * b], from four
   32 x 32-bit products; the low 64 bits are [Int64.mul a b]. *)
let[@inline] mul_hi a b =
  let open Int64 in
  let mask = 0xFFFF_FFFFL in
  let a0 = logand a mask and a1 = shift_right_logical a 32 in
  let b0 = logand b mask and b1 = shift_right_logical b 32 in
  let p01 = mul a0 b1 and p10 = mul a1 b0 in
  let mid =
    add (add (shift_right_logical (mul a0 b0) 32) (logand p01 mask)) (logand p10 mask)
  in
  add
    (add (mul a1 b1) (shift_right_logical p01 32))
    (add (shift_right_logical p10 32) (shift_right_logical mid 32))

(* Unsigned [a < b]. *)
let[@inline] ult a b = Int64.add a Int64.min_int < Int64.add b Int64.min_int

(* Leading zero bits of [x], [0 < x < 2^32], in 32 bits. *)
let clz32 x =
  let n = ref 0 and x = ref x in
  if !x land 0xFFFF0000 = 0 then begin n := 16; x := !x lsl 16 end;
  if !x land 0xFF000000 = 0 then begin n := !n + 8; x := !x lsl 8 end;
  if !x land 0xF0000000 = 0 then begin n := !n + 4; x := !x lsl 4 end;
  if !x land 0xC0000000 = 0 then begin n := !n + 2; x := !x lsl 2 end;
  if !x land 0x80000000 = 0 then !n + 1 else !n

(* Eisel–Lemire for [w * 10^q], [w <> 0], [q] in the table's range: the
   float64 bits, sign excluded.  [w] is normalised so its top bit is
   set and multiplied by the truncated 128-bit 5^q; when the bits below
   the 55 kept are all ones, the second product (by the low half of the
   power) decides whether a carry reaches them.  The exponent is
   floor(q * log2 10) + 63 from the fixed-point 217706 / 2^16; exact
   halfway cases, which only occur for q in [-4, 23], round to even.
   The result is spelled as bits so that no boxed int64 crosses a call. *)
let[@inline] eisel_lemire w q =
  let hi32 = Int64.to_int (Int64.shift_right_logical w 32) in
  let lz =
    if hi32 = 0 then 32 + clz32 (Int64.to_int (Int64.logand w 0xFFFF_FFFFL))
    else clz32 hi32
  in
  let w = Int64.shift_left w lz in
  let k = 16 * (q - Pow5_table.smallest) in
  let p_hi = table_word k in
  let hi = ref (mul_hi w p_hi) and lo = ref (Int64.mul w p_hi) in
  if Int64.equal (Int64.logand !hi 0x1FFL) 0x1FFL then begin
    let carry = mul_hi w (table_word (k + 8)) in
    lo := Int64.add !lo carry;
    if ult !lo carry then hi := Int64.succ !hi
  end;
  let hi = !hi and lo = !lo in
  let upper = Int64.to_int (Int64.shift_right_logical hi 63) in
  let shift = upper + 9 in
  let m = Int64.shift_right_logical hi shift in
  let e = ((217706 * q) asr 16) + 63 + upper - lz + 1023 in
  if e <= 0 then
    (* Subnormal, or zero; rounding up may carry into the smallest
       normal exponent, which the mantissa's bit 52 then spells. *)
    if 1 - e >= 64 then 0L
    else
      let m = Int64.shift_right_logical m (1 - e) in
      Int64.shift_right_logical (Int64.add m (Int64.logand m 1L)) 1
  else
    let m =
      if (not (ult 1L lo)) && q >= -4 && q <= 23
         && Int64.equal (Int64.logand m 3L) 1L
         && Int64.equal (Int64.shift_left m shift) hi
      then Int64.logand m (-2L)
      else m
    in
    let m = Int64.shift_right_logical (Int64.add m (Int64.logand m 1L)) 1 in
    (* Rounding up to 2^53 carries into the exponent; bit 52 of [m] is
       the implicit one and is dropped. *)
    let e = if Int64.equal m 0x20_0000_0000_0000L then e + 1 else e in
    if e >= 0x7FF then 0x7FF0_0000_0000_0000L
    else Int64.logor (Int64.shift_left (Int64.of_int e) 52) (Int64.logand m 0xF_FFFF_FFFF_FFFFL)

let of_span s at len =
  if at < 0 || len < 0 || at > String.length s - len then invalid_arg "Decimal.of_span";
  let stop = at + len in
  let i = ref at in
  let neg = len > 0 && String.unsafe_get s at = '-' in
  if len > 0 && (neg || String.unsafe_get s at = '+') then incr i;
  (* [w]: the first 18 significant digits; [d19] the 19th; [nd] how many
     significant digits have been read; [digits] how many digits at all;
     [q] minus the fraction digits read. *)
  let w = ref 0 and d19 = ref 0 and nd = ref 0 and digits = ref 0 and q = ref 0 in
  let plain = ref true and in_fraction = ref false in
  let scanning = ref true in
  while !scanning && !i < stop do
    match String.unsafe_get s !i with
    | '0' .. '9' as c ->
      let d = Char.code c - 48 in
      incr digits;
      if !in_fraction then decr q;
      if !nd > 0 || d > 0 then begin
        if !nd < 18 then w := (!w * 10) + d
        else if !nd = 18 then d19 := d
        else plain := false;
        incr nd
      end;
      incr i
    | '.' when not !in_fraction -> in_fraction := true; incr i
    | _ -> scanning := false
  done;
  if !digits = 0 then plain := false;
  if !plain && !i < stop then begin
    match String.unsafe_get s !i with
    | 'e' | 'E' ->
      incr i;
      let eneg = !i < stop && String.unsafe_get s !i = '-' in
      if !i < stop && (eneg || String.unsafe_get s !i = '+') then incr i;
      let e = ref 0 and edigits = ref 0 in
      while !i < stop && (match String.unsafe_get s !i with '0' .. '9' -> true | _ -> false) do
        if !e < 100_000 then e := (!e * 10) + (Char.code (String.unsafe_get s !i) - 48);
        incr edigits;
        incr i
      done;
      if !edigits = 0 || !e >= 100_000 then plain := false
      else q := if eneg then !q - !e else !q + !e
    | _ -> ()
  end;
  if not (!plain && !i = stop) then fallback s at len
  else if !nd = 0 then (if neg then -0.0 else 0.0)
  else begin
    let q = !q in
    if !nd <= 18 && !w <= 0x20_0000_0000_0000 && q >= -22 && q <= 22 then begin
      let f = Float.of_int !w in
      let f = if q >= 0 then f *. Array.unsafe_get pow10 q else f /. Array.unsafe_get pow10 (-q) in
      if neg then -.f else f
    end
    else if q < Pow5_table.smallest then (if neg then -0.0 else 0.0)
    else if q > Pow5_table.largest then (if neg then Float.neg_infinity else Float.infinity)
    else begin
      let w64 =
        if !nd = 19 then Int64.add (Int64.mul (Int64.of_int !w) 10L) (Int64.of_int !d19)
        else Int64.of_int !w
      in
      let sign = if neg then Int64.min_int else 0L in
      Int64.float_of_bits (Int64.logor (eisel_lemire w64 q) sign)
    end
  end

let of_string s = of_span s 0 (String.length s)

let of_string_opt s = match of_string s with v -> Some v | exception Failure _ -> None
