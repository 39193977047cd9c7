let search_sorted xs x =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Interp.search_sorted: empty grid";
  if x < xs.(0) then -1
  else if x >= xs.(n - 1) then n - 1
  else begin
    (* Invariant: xs.(lo) <= x < xs.(hi). *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if xs.(mid) <= x then lo := mid else hi := mid
    done;
    !lo
  end

let linear xs ys x =
  let n = Array.length xs in
  if Array.length ys <> n then invalid_arg "Interp.linear: length mismatch";
  if n = 0 then invalid_arg "Interp.linear: empty grid";
  if x <= xs.(0) then ys.(0)
  else if x >= xs.(n - 1) then ys.(n - 1)
  else begin
    let i = search_sorted xs x in
    let x0 = xs.(i) and x1 = xs.(i + 1) in
    if x1 = x0 then ys.(i)
    else ys.(i) +. ((ys.(i + 1) -. ys.(i)) *. (x -. x0) /. (x1 -. x0))
  end

let inverse_monotone xs ys y =
  let n = Array.length xs in
  if Array.length ys <> n then
    invalid_arg "Interp.inverse_monotone: length mismatch";
  if n = 0 then invalid_arg "Interp.inverse_monotone: empty grid";
  if y <= ys.(0) then xs.(0)
  else if y >= ys.(n - 1) then xs.(n - 1)
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if ys.(mid) <= y then lo := mid else hi := mid
    done;
    let y0 = ys.(!lo) and y1 = ys.(!hi) in
    if y1 = y0 then xs.(!lo)
    else xs.(!lo) +. ((xs.(!hi) -. xs.(!lo)) *. (y -. y0) /. (y1 -. y0))
  end

let linspace a b n =
  if n < 2 then invalid_arg "Interp.linspace: n < 2";
  let xs = Array.create_float n in
  for i = 0 to n - 1 do
    xs.(i) <- a +. ((b -. a) *. float_of_int i /. float_of_int (n - 1))
  done;
  xs

(* Exponentiated in place: one array, and no closure boxing a float per
   point. *)
let logspace a b n =
  if a <= 0.0 || b <= 0.0 then invalid_arg "Interp.logspace: bounds <= 0";
  let xs = linspace (log a) (log b) n in
  for i = 0 to n - 1 do
    xs.(i) <- exp xs.(i)
  done;
  xs
