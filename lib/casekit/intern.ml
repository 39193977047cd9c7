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
