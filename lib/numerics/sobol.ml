(* Gray-code Sobol sequences (Bratley & Fox, TOMS 1988) over the Joe-Kuo
   direction numbers, with optional Owen-style scrambling (Matousek linear
   matrix scrambling + digital shift).

   Points are generated at 32-bit resolution: the state for dimension d is
   an integer x_d < 2^32, and point k+1 differs from point k by XOR with
   one direction number — the one indexed by the rightmost zero bit of k
   (gray-code order).  Everything is kept in plain OCaml ints (63-bit), so
   no boxing happens anywhere on the per-point path. *)

let bits = 32
let word_mask = (1 lsl bits) - 1

(* Joe-Kuo "new-joe-kuo-6" parameters (s, a, m_1..m_s) for dimensions
   2..21; dimension 1 is the van der Corput sequence.  Each m_i is odd and
   m_i < 2^i, which is all the recurrence needs to produce a valid digital
   net; these particular values are the Joe-Kuo optimised ones. *)
let joe_kuo =
  [| (1, 0, [| 1 |]);
     (2, 1, [| 1; 3 |]);
     (3, 1, [| 1; 3; 1 |]);
     (3, 2, [| 1; 1; 1 |]);
     (4, 1, [| 1; 1; 3; 3 |]);
     (4, 4, [| 1; 3; 5; 13 |]);
     (5, 2, [| 1; 1; 5; 5; 17 |]);
     (5, 4, [| 1; 1; 5; 5; 5 |]);
     (5, 7, [| 1; 1; 7; 11; 19 |]);
     (5, 11, [| 1; 1; 5; 1; 1 |]);
     (5, 13, [| 1; 1; 1; 3; 11 |]);
     (5, 14, [| 1; 3; 5; 5; 31 |]);
     (6, 1, [| 1; 3; 3; 9; 7; 49 |]);
     (6, 13, [| 1; 1; 1; 15; 21; 21 |]);
     (6, 16, [| 1; 3; 1; 13; 27; 49 |]);
     (6, 19, [| 1; 1; 1; 15; 7; 5 |]);
     (6, 22, [| 1; 3; 1; 15; 13; 25 |]);
     (6, 25, [| 1; 1; 5; 5; 19; 61 |]);
     (7, 1, [| 1; 3; 7; 11; 23; 15; 103 |]);
     (7, 4, [| 1; 3; 7; 13; 13; 15; 69 |]) |]

let max_dim = Array.length joe_kuo + 1

type t = {
  dimension : int;
  v : int array array;  (* v.(d).(b): direction number b of dimension d *)
  shift : int array;  (* per-dimension digital shift (0 when unscrambled) *)
  x : int array;  (* current gray-code state *)
  mutable generated : int;
}

(* Direction numbers for one dimension, MSB-aligned: v_j = m_j * 2^(32-j)
   for j <= s, then the primitive-polynomial recurrence
   v_j = v_(j-s) xor (v_(j-s) >> s) xor sum_{k<s, a_k=1} v_(j-k). *)
let directions d =
  let v = Array.make bits 0 in
  if d = 0 then
    for b = 0 to bits - 1 do
      v.(b) <- 1 lsl (bits - 1 - b)
    done
  else begin
    let s, a, m = joe_kuo.(d - 1) in
    for b = 0 to s - 1 do
      v.(b) <- m.(b) lsl (bits - 1 - b)
    done;
    for b = s to bits - 1 do
      let prev = v.(b - s) in
      let acc = ref (prev lxor (prev lsr s)) in
      for k = 1 to s - 1 do
        if (a lsr (s - 1 - k)) land 1 = 1 then acc := !acc lxor v.(b - k)
      done;
      v.(b) <- !acc
    done
  end;
  v

let parity x =
  let x = x lxor (x lsr 16) in
  let x = x lxor (x lsr 8) in
  let x = x lxor (x lsr 4) in
  let x = x lxor (x lsr 2) in
  let x = x lxor (x lsr 1) in
  x land 1

let rand_word rng = Int64.to_int (Rng.bits64 rng) land word_mask

(* Matousek linear matrix scramble: a random lower-triangular bit matrix
   L (unit diagonal) applied to every direction number of a dimension.
   Row p of L decides output bit p from input bits p..31, so rowmask p has
   bit p set plus random bits strictly above p.  Applying L to the
   generating matrix columns up front is equivalent to scrambling every
   output point, and keeps the per-point cost at one XOR. *)
let scramble_dimension rng v =
  let rowmask = Array.make bits 0 in
  for p = 0 to bits - 1 do
    let hi_mask = word_mask land lnot ((1 lsl (p + 1)) - 1) in
    rowmask.(p) <- (1 lsl p) lor (rand_word rng land hi_mask)
  done;
  Array.map
    (fun w ->
      let out = ref 0 in
      for p = 0 to bits - 1 do
        out := !out lor (parity (w land rowmask.(p)) lsl p)
      done;
      !out)
    v

let create ?scramble ~dim () =
  if dim < 1 || dim > max_dim then
    invalid_arg
      (Printf.sprintf "Sobol.create: dim %d outside 1..%d" dim max_dim);
  let v = Array.init dim directions in
  let shift = Array.make dim 0 in
  (match scramble with
  | None -> ()
  | Some rng ->
    for d = 0 to dim - 1 do
      v.(d) <- scramble_dimension rng v.(d);
      shift.(d) <- rand_word rng
    done);
  { dimension = dim; v; shift; x = Array.make dim 0; generated = 0 }

let dim t = t.dimension
let count t = t.generated

let scale = 0x1p-32

let next t buf =
  let len = Stdlib.Float.Array.length buf (* lint: allow-floatarray *) in
  if len < t.dimension then
    invalid_arg "Sobol.next: buffer shorter than the dimension";
  if t.generated >= word_mask then invalid_arg "Sobol.next: sequence exhausted";
  for d = 0 to t.dimension - 1 do
    Stdlib.Float.Array.unsafe_set buf d (* lint: allow-floatarray *)
      (float_of_int (t.x.(d) lxor t.shift.(d)) *. scale)
  done;
  (* Gray-code advance: flip the direction number indexed by the rightmost
     zero bit of the point counter. *)
  let c =
    let rec find b n = if n land 1 = 0 then b else find (b + 1) (n lsr 1) in
    find 0 t.generated
  in
  for d = 0 to t.dimension - 1 do
    t.x.(d) <- t.x.(d) lxor t.v.(d).(c)
  done;
  t.generated <- t.generated + 1
