(* A slot holds [hash lsl 32 lor position] (-1 when empty), so a probe
   passes most occupied slots without calling the caller's equality, and
   growing moves slots without hashing a key again.  The slot array has
   a power-of-two size at least twice the count. *)

type t = { mutable slots : int array; mutable count : int }

let create n =
  let rec size m = if m >= 2 * n then m else size (2 * m) in
  { slots = Array.make (size 16) (-1); count = 0 }

let position s = s land 0xffff_ffff

(* Only 30 bits of the hash are kept, so a slot stays a positive int. *)
let fold h = h land 0x3fff_ffff

(* The slot holding a position whose key [matches], or the empty slot
   where it would go. *)
let rec probe slots h matches i =
  let s = slots.(i) in
  if s < 0 || (s lsr 32 = h && matches (position s)) then i
  else probe slots h matches ((i + 1) land (Array.length slots - 1))

let slot t h matches = probe t.slots h matches (h land (Array.length t.slots - 1))

let find t h matches =
  let s = t.slots.(slot t (fold h) matches) in
  if s < 0 then -1 else position s

let grow t =
  let size = 2 * Array.length t.slots in
  let slots = Array.make size (-1) in
  let rec free i = if slots.(i) < 0 then i else free ((i + 1) land (size - 1)) in
  Array.iter (fun s -> if s >= 0 then slots.(free ((s lsr 32) land (size - 1))) <- s) t.slots;
  t.slots <- slots

let intern t h matches k =
  if 2 * (t.count + 1) > Array.length t.slots then grow t;
  let h = fold h in
  let i = slot t h matches in
  let s = t.slots.(i) in
  if s >= 0 then position s
  else begin
    t.slots.(i) <- (h lsl 32) lor k;
    t.count <- t.count + 1;
    k
  end

(* Eight bytes at a time: each word is mixed in with a multiply, the tail
   byte by byte, and a final shift-multiply-shift makes the low bits,
   which pick the slot, depend on every byte.  [Int64.to_int] keeps 63 of
   a word's 64 bits, which costs a hash nothing but its top bit. *)
external word : string -> int -> int64 = "%caml_string_get64"

let mix h w = (h lxor w) * 0x100000001b3

let finish h =
  let h = (h lxor (h lsr 31)) * 0x7fb5d329728ea185 in
  (h lxor (h lsr 29)) land max_int

let span_hash s at len =
  let h = ref (mix 0x3bf29ce484222325 len) in
  let stop = at + len in
  let i = ref at in
  while !i + 8 <= stop do
    h := mix !h (Int64.to_int (word s !i));
    i := !i + 8
  done;
  while !i < stop do
    h := mix !h (Char.code (String.unsafe_get s !i));
    incr i
  done;
  finish !h

let rec span_equal a i b j n =
  n = 0 || (String.unsafe_get a i = String.unsafe_get b j && span_equal a (i + 1) b (j + 1) (n - 1))
