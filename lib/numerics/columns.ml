(* Growable float64 columns over Bigarray.Array1 storage.  The length /
   capacity split mirrors a vector; fixed-capacity columns ([of_bigarray],
   [sub_view], mmapped loads) alias storage they do not own and therefore
   refuse to grow rather than silently detach from it. *)

type ba = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { mutable data : ba; mutable len : int; growable : bool }

let alloc n : ba = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

let create ?(capacity = 16) () =
  if capacity < 0 then invalid_arg "Columns.create: capacity < 0";
  { data = alloc capacity; len = 0; growable = true }

let make n x =
  if n < 0 then invalid_arg "Columns.make: n < 0";
  let data = alloc n in
  Bigarray.Array1.fill data x;
  { data; len = n; growable = true }

let length t = t.len
let capacity t = Bigarray.Array1.dim t.data
let growable t = t.growable

let check_index name t i =
  if i < 0 || i >= t.len then invalid_arg (name ^ ": index out of bounds")

let get t i =
  check_index "Columns.get" t i;
  Bigarray.Array1.unsafe_get t.data i

let set t i x =
  check_index "Columns.set" t i;
  Bigarray.Array1.unsafe_set t.data i x

let unsafe_get t i = Bigarray.Array1.unsafe_get t.data i
let unsafe_data t = t.data

let ensure_capacity t needed =
  if needed > Bigarray.Array1.dim t.data then begin
    if not t.growable then
      invalid_arg "Columns: fixed-capacity column cannot grow";
    let cap = max needed (max 16 (2 * Bigarray.Array1.dim t.data)) in
    let data = alloc cap in
    Bigarray.Array1.blit
      (Bigarray.Array1.sub t.data 0 t.len)
      (Bigarray.Array1.sub data 0 t.len);
    t.data <- data
  end

let push t x =
  ensure_capacity t (t.len + 1);
  Bigarray.Array1.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let append_array t xs =
  let n = Array.length xs in
  ensure_capacity t (t.len + n);
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set t.data (t.len + i) (Array.unsafe_get xs i)
  done;
  t.len <- t.len + n

let clear t = t.len <- 0

let set_length t n =
  if n < 0 || n > Bigarray.Array1.dim t.data then
    invalid_arg "Columns.set_length: n outside [0, capacity]";
  t.len <- n

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  if
    len < 0 || src_pos < 0 || dst_pos < 0
    || src_pos + len > src.len
    || dst_pos + len > dst.len
  then invalid_arg "Columns.blit";
  if len > 0 then
    Bigarray.Array1.blit
      (Bigarray.Array1.sub src.data src_pos len)
      (Bigarray.Array1.sub dst.data dst_pos len)

let sub_view t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then
    invalid_arg "Columns.sub_view";
  { data = Bigarray.Array1.sub t.data pos len; len; growable = false }

let of_bigarray (data : ba) =
  { data; len = Bigarray.Array1.dim data; growable = false }

let copy t =
  let data = alloc t.len in
  if t.len > 0 then
    Bigarray.Array1.blit (Bigarray.Array1.sub t.data 0 t.len) data;
  { data; len = t.len; growable = true }

let of_array xs =
  let n = Array.length xs in
  let data = alloc n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set data i (Array.unsafe_get xs i)
  done;
  { data; len = n; growable = true }

let to_array t = Array.init t.len (fun i -> Bigarray.Array1.unsafe_get t.data i)

let iter f t =
  for i = 0 to t.len - 1 do
    f (Bigarray.Array1.unsafe_get t.data i)
  done

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc (Bigarray.Array1.unsafe_get t.data i)
  done;
  !acc

(* Same left-to-right float-op order as [Summary.mean]/[variance], so the
   results are bit-identical to the array versions. *)
let mean t =
  if t.len = 0 then invalid_arg "Columns.mean: empty column";
  fold_left ( +. ) 0.0 t /. float_of_int t.len

let variance t =
  if t.len < 2 then invalid_arg "Columns.variance: need >= 2 elements";
  let m = mean t in
  let ss = fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 t in
  ss /. float_of_int (t.len - 1)

(* ------------------------------------------------------------------ *)
(* Sorting: introsort over the NaN-free suffix.  A single pre-pass moves
   NaNs to the front — where a [Float.compare] sort puts them — after
   which primitive [<] is the [Float.compare] order (mixed-sign zeros are
   compare-equal and interchangeable).  Quicksort with median-of-three
   pivots, insertion sort below 16 elements, heapsort past the depth
   limit, so the worst case stays O(n log n) whatever the input. *)

let swap (d : ba) i j =
  let x = Bigarray.Array1.unsafe_get d i in
  Bigarray.Array1.unsafe_set d i (Bigarray.Array1.unsafe_get d j);
  Bigarray.Array1.unsafe_set d j x

let insertion_sort (d : ba) lo hi =
  for i = lo + 1 to hi do
    let x = Bigarray.Array1.unsafe_get d i in
    let j = ref (i - 1) in
    while !j >= lo && Bigarray.Array1.unsafe_get d !j > x do
      Bigarray.Array1.unsafe_set d (!j + 1) (Bigarray.Array1.unsafe_get d !j);
      decr j
    done;
    Bigarray.Array1.unsafe_set d (!j + 1) x
  done

let heapsort (d : ba) lo hi =
  let n = hi - lo + 1 in
  let down root last =
    let root = ref root in
    let continue_ = ref true in
    while !continue_ do
      let child = (2 * !root) + 1 in
      if child > last then continue_ := false
      else begin
        let child =
          if
            child + 1 <= last
            && Bigarray.Array1.unsafe_get d (lo + child)
               < Bigarray.Array1.unsafe_get d (lo + child + 1)
          then child + 1
          else child
        in
        if
          Bigarray.Array1.unsafe_get d (lo + !root)
          < Bigarray.Array1.unsafe_get d (lo + child)
        then begin
          swap d (lo + !root) (lo + child);
          root := child
        end
        else continue_ := false
      end
    done
  in
  for i = (n / 2) - 1 downto 0 do
    down i (n - 1)
  done;
  for last = n - 1 downto 1 do
    swap d lo (lo + last);
    down 0 (last - 1)
  done

let rec introsort (d : ba) lo hi depth =
  if hi - lo >= 16 then
    if depth = 0 then heapsort d lo hi
    else begin
      (* Median-of-three pivot, moved to [hi] for a Hoare-style scan. *)
      let mid = lo + ((hi - lo) / 2) in
      if Bigarray.Array1.unsafe_get d mid < Bigarray.Array1.unsafe_get d lo
      then swap d mid lo;
      if Bigarray.Array1.unsafe_get d hi < Bigarray.Array1.unsafe_get d lo
      then swap d hi lo;
      if Bigarray.Array1.unsafe_get d hi < Bigarray.Array1.unsafe_get d mid
      then swap d hi mid;
      let pivot = Bigarray.Array1.unsafe_get d mid in
      let i = ref (lo - 1) and j = ref (hi + 1) in
      let crossed = ref false in
      while not !crossed do
        incr i;
        while Bigarray.Array1.unsafe_get d !i < pivot do
          incr i
        done;
        decr j;
        while pivot < Bigarray.Array1.unsafe_get d !j do
          decr j
        done;
        if !i >= !j then crossed := true else swap d !i !j
      done;
      introsort d lo !j (depth - 1);
      introsort d (!j + 1) hi (depth - 1)
    end
  else insertion_sort d lo hi

let sort t =
  let d = t.data in
  let n = t.len in
  (* NaNs to the front, as Float.compare orders them. *)
  let m = ref 0 in
  for i = 0 to n - 1 do
    let x = Bigarray.Array1.unsafe_get d i in
    if x <> x then begin
      swap d i !m;
      incr m
    end
  done;
  if n - !m > 1 then begin
    let depth =
      let k = ref 0 and v = ref (n - !m) in
      while !v > 1 do
        incr k;
        v := !v / 2
      done;
      2 * !k
    in
    introsort d !m (n - 1) depth
  end

let quantile_sorted t p =
  if t.len = 0 then invalid_arg "Columns.quantile_sorted: empty column";
  if p < 0.0 || p > 1.0 then
    invalid_arg "Columns.quantile_sorted: p not in [0,1]";
  let n = t.len in
  let h = p *. float_of_int (n - 1) in
  let i = int_of_float (floor h) in
  if i >= n - 1 then unsafe_get t (n - 1)
  else
    unsafe_get t i
    +. ((h -. float_of_int i) *. (unsafe_get t (i + 1) -. unsafe_get t i))

(* ------------------------------------------------------------------ *)
(* Snapshots.  Layout v1 (all integers and float bit patterns
   little-endian on disk, whatever the host):

     magic "CFCOLSNP" | u64 version = 1 | u64 ncols
     per column: u64 name_len | name bytes zero-padded to 8 | u64 count
     data sections in declaration order (8-byte aligned by construction)

   [save] is atomic (temp file + rename).  [load] validates the whole
   header — magic, version, name lengths, and the exact file size implied
   by the declared counts — before any data is read or mapped, so a
   truncated or corrupt file fails with a clean [Failure] rather than a
   fault inside a short mapping. *)

let magic = "CFCOLSNP"
let version = 1
let max_cols = 65536
let max_name = 255

let pad8 n = (n + 7) land lnot 7

let failf fmt = Printf.ksprintf failwith fmt

let env_mmap_default () =
  match Sys.getenv_opt "CONFCASE_MMAP" with
  | Some ("1" | "true" | "yes" | "TRUE" | "YES") -> true
  | Some _ | None -> false

let header_bytes cols =
  let n_header =
    8 + 8 + 8
    + List.fold_left (fun acc (name, _) -> acc + 8 + pad8 (String.length name) + 8) 0 cols
  in
  let b = Bytes.make n_header '\000' in
  Bytes.blit_string magic 0 b 0 8;
  Bytes.set_int64_le b 8 (Int64.of_int version);
  Bytes.set_int64_le b 16 (Int64.of_int (List.length cols));
  let off = ref 24 in
  List.iter
    (fun (name, col) ->
      let nl = String.length name in
      Bytes.set_int64_le b !off (Int64.of_int nl);
      Bytes.blit_string name 0 b (!off + 8) nl;
      off := !off + 8 + pad8 nl;
      Bytes.set_int64_le b !off (Int64.of_int col.len);
      off := !off + 8)
    cols;
  b

let check_names cols =
  if cols = [] then invalid_arg "Columns.save: no columns";
  if List.length cols > max_cols then invalid_arg "Columns.save: too many columns";
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (name, _) ->
      let nl = String.length name in
      if nl = 0 || nl > max_name then
        invalid_arg "Columns.save: column name empty or over 255 bytes";
      if String.contains name '\000' then
        invalid_arg "Columns.save: column name contains NUL";
      if Hashtbl.mem seen name then
        invalid_arg ("Columns.save: duplicate column name " ^ name);
      Hashtbl.add seen name ())
    cols

(* Encode a column's elements through a fixed 64 KiB staging buffer; the
   explicit [set_int64_le] of each float's bit pattern makes the on-disk
   layout little-endian on any host. *)
let write_data oc col =
  let chunk_elems = 8192 in
  let buf = Bytes.create (8 * chunk_elems) in
  let remaining = ref col.len in
  let pos = ref 0 in
  while !remaining > 0 do
    let n = min !remaining chunk_elems in
    for i = 0 to n - 1 do
      Bytes.set_int64_le buf (8 * i)
        (Int64.bits_of_float (Bigarray.Array1.unsafe_get col.data (!pos + i)))
    done;
    output_bytes oc (Bytes.sub buf 0 (8 * n));
    pos := !pos + n;
    remaining := !remaining - n
  done

let save path cols =
  check_names cols;
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir "columns" ".snap.tmp" in
  let oc = open_out_bin tmp in
  (try
     output_bytes oc (header_bytes cols);
     List.iter (fun (_, col) -> write_data oc col) cols;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

type descriptor = { d_name : string; d_count : int; d_offset : int }

(* Parse and fully validate the header; returns the descriptors with
   their absolute data offsets.  Every length is checked against the file
   size before use, so truncation at any point yields a clean error. *)
let read_descriptors path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let file_size = in_channel_length ic in
      if file_size < 24 then failf "Columns.load: %s: too short for a snapshot" path;
      let fixed = Bytes.create 24 in
      really_input ic fixed 0 24;
      if Bytes.sub_string fixed 0 8 <> magic then
        failf "Columns.load: %s: bad magic (not a column snapshot)" path;
      let v = Int64.to_int (Bytes.get_int64_le fixed 8) in
      if v <> version then
        failf "Columns.load: %s: unsupported snapshot version %d (expected %d)"
          path v version;
      let ncols = Int64.to_int (Bytes.get_int64_le fixed 16) in
      if ncols <= 0 || ncols > max_cols then
        failf "Columns.load: %s: implausible column count %d" path ncols;
      let pos = ref 24 in
      let read_u64 () =
        if !pos + 8 > file_size then
          failf "Columns.load: %s: truncated header" path;
        let b = Bytes.create 8 in
        really_input ic b 0 8;
        pos := !pos + 8;
        Bytes.get_int64_le b 0
      in
      let descs =
        List.init ncols (fun _ ->
            let nl = Int64.to_int (read_u64 ()) in
            if nl <= 0 || nl > max_name then
              failf "Columns.load: %s: bad column-name length %d" path nl;
            let padded = pad8 nl in
            if !pos + padded > file_size then
              failf "Columns.load: %s: truncated header" path;
            let nb = Bytes.create padded in
            really_input ic nb 0 padded;
            pos := !pos + padded;
            let name = Bytes.sub_string nb 0 nl in
            let count64 = read_u64 () in
            let count = Int64.to_int count64 in
            if
              count < 0
              || Int64.compare count64 (Int64.of_int max_int) > 0
              || count > (file_size / 8) + 1
            then
              failf "Columns.load: %s: implausible element count %Ld for %s"
                path count64 name;
            { d_name = name; d_count = count; d_offset = 0 })
      in
      let header_end = !pos in
      let _, descs =
        List.fold_left
          (fun (off, acc) d ->
            (off + (8 * d.d_count), { d with d_offset = off } :: acc))
          (header_end, []) descs
      in
      let descs = List.rev descs in
      let expected =
        List.fold_left (fun acc d -> acc + (8 * d.d_count)) header_end descs
      in
      if expected <> file_size then
        failf
          "Columns.load: %s: file size %d disagrees with declared contents %d \
           (truncated or corrupt)"
          path file_size expected;
      descs)

let load_copying path descs =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      List.map
        (fun d ->
          seek_in ic d.d_offset;
          let data = alloc d.d_count in
          let chunk_elems = 8192 in
          let buf = Bytes.create (8 * chunk_elems) in
          let remaining = ref d.d_count in
          let pos = ref 0 in
          while !remaining > 0 do
            let n = min !remaining chunk_elems in
            really_input ic buf 0 (8 * n);
            for i = 0 to n - 1 do
              Bigarray.Array1.unsafe_set data (!pos + i)
                (Int64.float_of_bits (Bytes.get_int64_le buf (8 * i)))
            done;
            pos := !pos + n;
            remaining := !remaining - n
          done;
          (d.d_name, { data; len = d.d_count; growable = true }))
        descs)

let load_mmap path descs =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      List.map
        (fun d ->
          if d.d_count = 0 then (d.d_name, create ~capacity:0 ())
          else begin
            (* Private mapping: reads are zero-copy, writes stay in
               anonymous pages and never reach the file. *)
            let ga =
              Unix.map_file fd ~pos:(Int64.of_int d.d_offset)
                Bigarray.float64 Bigarray.c_layout false [| d.d_count |]
            in
            (d.d_name, of_bigarray (Bigarray.array1_of_genarray ga))
          end)
        descs)

let load ?mmap path =
  let mmap = match mmap with Some m -> m | None -> env_mmap_default () in
  let descs = read_descriptors path in
  (* A raw mapping reads host-endian float64s; on a big-endian host the
     copying loader (which byte-swaps) is the only correct path. *)
  if mmap && not Sys.big_endian then load_mmap path descs
  else load_copying path descs

let find cols name =
  match List.assoc_opt name cols with
  | Some c -> c
  | None -> failf "Columns.find: no column named %s in snapshot" name
