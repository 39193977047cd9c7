(* The calibration kernel that E2e.Speed times: plain OCaml over the
   standard library, with the mix of work confcase does (text built and
   split, strings hashed into a table, floats sorted, short-lived
   allocation).  It runs in a process of its own, so its collections
   never scan the benchmark's heap.  Prints its run time in seconds. *)

let kernel () =
  let b = Buffer.create (1 lsl 19) in
  for i = 0 to 12_000 do
    Buffer.add_string b "node ";
    Buffer.add_string b (string_of_int (i * 7919));
    Buffer.add_string b " holds ";
    Buffer.add_string b (string_of_float (float_of_int i /. 3.0));
    Buffer.add_char b '\n'
  done;
  let h = Hashtbl.create 1024 in
  List.iter
    (fun l -> if l <> "" then Hashtbl.replace h (List.nth (String.split_on_char ' ' l) 1) (String.length l))
    (String.split_on_char '\n' (Buffer.contents b));
  let a = Array.init 80_000 (fun i -> float_of_int ((i * 7919) mod 100_003) *. 1.5) in
  Array.sort Float.compare a;
  let l = List.init 80_000 (fun i -> (i, float_of_int i)) in
  let s = List.fold_left (fun acc (i, x) -> acc + i + int_of_float (sqrt x)) 0 (List.rev l) in
  Hashtbl.length h + int_of_float a.(0) + s

let () =
  let t0 = Monotonic_clock.now () in
  let r = kernel () in
  let t1 = Monotonic_clock.now () in
  Printf.printf "%.9f %d\n" (Int64.to_float (Int64.sub t1 t0) *. 1e-9) (r land 1)
