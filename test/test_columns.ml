(* Unboxed columns: growth/aliasing semantics, the sort contract, the
   snapshot round-trip (copying and mmapped, bitwise), corrupt-snapshot
   rejection, and the column kernels (Empirical, Mixture, Mc) against
   their scalar references in [Mc_oracle]. *)

open Helpers

let bits = Int64.bits_of_float

let check_bits name expected actual =
  if bits expected <> bits actual then
    Alcotest.failf "%s: expected %h (%Lx), got %h (%Lx)" name expected
      (bits expected) actual (bits actual)

let with_temp_snapshot f =
  let path = Filename.temp_file "confcase_cols" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let columns_equal_bitwise a b =
  Numerics.Columns.length a = Numerics.Columns.length b
  && (let ok = ref true in
      for i = 0 to Numerics.Columns.length a - 1 do
        if bits (Numerics.Columns.get a i) <> bits (Numerics.Columns.get b i)
        then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Core container semantics *)

let grow_and_convert () =
  let c = Numerics.Columns.create ~capacity:0 () in
  for i = 0 to 99 do
    Numerics.Columns.push c (float_of_int i)
  done;
  Alcotest.(check int) "length" 100 (Numerics.Columns.length c);
  check_true "capacity >= length"
    (Numerics.Columns.capacity c >= Numerics.Columns.length c);
  let xs = Numerics.Columns.to_array c in
  let c2 = Numerics.Columns.of_array xs in
  check_true "of_array/to_array round trip" (columns_equal_bitwise c c2);
  Numerics.Columns.clear c;
  Alcotest.(check int) "clear" 0 (Numerics.Columns.length c)

let view_aliasing () =
  let c = Numerics.Columns.of_array [| 0.0; 1.0; 2.0; 3.0; 4.0 |] in
  let v = Numerics.Columns.sub_view c ~pos:1 ~len:3 in
  Alcotest.(check int) "view length" 3 (Numerics.Columns.length v);
  check_true "view is fixed-capacity" (not (Numerics.Columns.growable v));
  Numerics.Columns.set v 0 42.0;
  check_bits "write via view visible in parent" 42.0
    (Numerics.Columns.get c 1);
  check_raises_invalid "push on a view" (fun () ->
      Numerics.Columns.push v 9.0)

let blit_overlap () =
  let c = Numerics.Columns.of_array [| 0.0; 1.0; 2.0; 3.0; 4.0 |] in
  (* memmove semantics: shifting right within one column. *)
  Numerics.Columns.blit ~src:c ~src_pos:0 ~dst:c ~dst_pos:1 ~len:4;
  List.iteri
    (fun i expected ->
      check_bits (Printf.sprintf "overlap slot %d" i) expected
        (Numerics.Columns.get c i))
    [ 0.0; 0.0; 1.0; 2.0; 3.0 ]

let sort_matches_array_sort =
  qcheck ~count:200 "Columns.sort matches Array.sort Float.compare"
    QCheck2.Gen.(list float)
    (fun xs ->
      let arr = Array.of_list xs in
      let c = Numerics.Columns.of_array arr in
      Numerics.Columns.sort c;
      let sorted = Array.copy arr in
      Array.sort Float.compare sorted;
      columns_equal_bitwise c (Numerics.Columns.of_array sorted))

(* ------------------------------------------------------------------ *)
(* Snapshot round trip *)

let snapshot_roundtrip =
  qcheck ~count:100 "save/load round-trips bitwise (copying and mmap)"
    QCheck2.Gen.(pair (list float) (list float))
    (fun (a, b) ->
      with_temp_snapshot (fun path ->
          let ca = Numerics.Columns.of_array (Array.of_list a) in
          let cb = Numerics.Columns.of_array (Array.of_list b) in
          Numerics.Columns.save path [ ("alpha", ca); ("b", cb) ];
          let check_mode mmap =
            match Numerics.Columns.load ~mmap path with
            | [ ("alpha", la); ("b", lb) ] ->
              columns_equal_bitwise ca la && columns_equal_bitwise cb lb
            | _ -> false
          in
          check_mode false && check_mode true))

let corrupt_byte path offset f =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let buf = Bytes.create len in
  really_input ic buf 0 len;
  close_in ic;
  Bytes.set buf offset (f (Bytes.get buf offset));
  let oc = open_out_bin path in
  output_bytes oc buf;
  close_out oc

let truncate_file path keep =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let n = min keep len in
  let buf = Bytes.create n in
  really_input ic buf 0 n;
  close_in ic;
  let oc = open_out_bin path in
  output_bytes oc buf;
  close_out oc

let expect_load_failure name path =
  List.iter
    (fun mmap ->
      match Numerics.Columns.load ~mmap path with
      | _ -> Alcotest.failf "%s (mmap=%b): expected Failure" name mmap
      | exception Failure _ -> ()
      (* A file that cannot be opened at all surfaces as the standard
         [Sys_error] rather than a snapshot-format [Failure]. *)
      | exception Sys_error _ -> ())
    [ false; true ]

let save_sample path =
  let c = Numerics.Columns.of_array (Array.init 257 float_of_int) in
  Numerics.Columns.save path [ ("samples", c) ]

let read_bytes path =
  let ic = open_in_bin path in
  let b = Bytes.create (in_channel_length ic) in
  really_input ic b 0 (Bytes.length b);
  close_in ic;
  b

let write_bytes path b =
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

(* [load_outcome ~mmap path] — [Some cols] or [None] for a [Failure];
   any other exception escapes and fails the test. *)
let load_outcome ~mmap path =
  match Numerics.Columns.load ~mmap path with
  | cols -> Some cols
  | exception Failure _ -> None

(* Hostile bytes: mutate a valid snapshot [valid] (the bytes of a
   [Columns.save]) and load it with both loaders.  Each must return
   columns or raise [Failure] — never another exception or a signal —
   and when both accept a file they must agree bit for bit.  [words] are
   the byte offsets of the header's magic, version, ncols, name_len and
   count words; [lengths] those of the length words alone. *)
let hostile_snapshot_loads name valid ~words ~lengths =
  let size = Bytes.length valid in
  let header_end = List.fold_left max 0 words + 8 in
  let variants = ref [] in
  let add label b = variants := (label, b) :: !variants in
  let truncations =
    List.init (header_end + 9) Fun.id @ [ size / 2; size - 8; size - 1 ]
  in
  List.iter
    (fun k ->
      if k >= 0 && k < size then add (Printf.sprintf "truncate %d" k)
          (Bytes.sub valid 0 k))
    truncations;
  List.iter
    (fun w ->
      for i = w to w + 7 do
        List.iter
          (fun mask ->
            let b = Bytes.copy valid in
            Bytes.set b i
              (Char.chr (Char.code (Bytes.get b i) lxor mask));
            add (Printf.sprintf "flip byte %d ^ 0x%02x" i mask) b)
          [ 0x01; 0x80; 0xff ]
      done)
    words;
  List.iter
    (fun w ->
      List.iter
        (fun v ->
          let b = Bytes.copy valid in
          Bytes.set_int64_le b w v;
          add (Printf.sprintf "word %d := %Ld" w v) b)
        [ 0L; -1L; Int64.of_int max_int; Int64.of_int (size + 8) ])
    lengths;
  List.iter
    (fun junk ->
      add
        (Printf.sprintf "append %d garbage bytes" (String.length junk))
        (Bytes.cat valid (Bytes.of_string junk)))
    [ "\x00"; "CFCOLSNP"; "\xff\x01\x02\x03\x04\x05\x06\x07\x08" ];
  with_temp_snapshot (fun path ->
      List.iter
        (fun (label, b) ->
          write_bytes path b;
          let outcome mmap =
            try load_outcome ~mmap path
            with e ->
              Alcotest.failf "%s, %s (mmap=%b): raised %s" name label mmap
                (Printexc.to_string e)
          in
          match (outcome false, outcome true) with
          | Some copied, Some mapped ->
            check_true
              (Printf.sprintf "%s, %s: loaders agree" name label)
              (List.length copied = List.length mapped
              && List.for_all2
                   (fun (n1, c1) (n2, c2) ->
                     String.equal n1 n2 && columns_equal_bitwise c1 c2)
                   copied mapped)
          | _ -> ())
        (List.rev !variants))

let corrupt_snapshots_rejected () =
  (* Every malformed input must fail cleanly before any mapping: a bad
     mmap length would otherwise surface as a SIGBUS on access. *)
  with_temp_snapshot (fun path ->
      Numerics.Columns.save path
        [ ("alpha", Numerics.Columns.of_array (Array.init 257 float_of_int));
          ("b", Numerics.Columns.of_array [| Float.nan; -0.0; 1e300 |]) ];
      (* magic | version | ncols | "alpha": name_len, name, count
         | "b": name_len, name, count | data from byte 72 *)
      hostile_snapshot_loads "two columns" (read_bytes path)
        ~words:[ 0; 8; 16; 24; 40; 48; 64 ]
        ~lengths:[ 16; 24; 40; 48; 64 ]);
  with_temp_snapshot (fun path ->
      Numerics.Columns.save path
        [ ("empty", Numerics.Columns.create ~capacity:0 ()) ];
      hostile_snapshot_loads "one empty column" (read_bytes path)
        ~words:[ 0; 8; 16; 24; 40 ] ~lengths:[ 16; 24; 40 ]);
  with_temp_snapshot (fun path ->
      save_sample path;
      corrupt_byte path 0 (fun _ -> 'X');
      expect_load_failure "bad magic" path);
  with_temp_snapshot (fun path ->
      save_sample path;
      (* Version word sits right after the 8-byte magic. *)
      corrupt_byte path 8 (fun _ -> '\xff');
      expect_load_failure "unsupported version" path);
  with_temp_snapshot (fun path ->
      save_sample path;
      (* Column-count word: header no longer agrees with the file size. *)
      corrupt_byte path 16 (fun _ -> '\x09');
      expect_load_failure "lying column count" path);
  with_temp_snapshot (fun path ->
      save_sample path;
      let size =
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        close_in ic;
        n
      in
      truncate_file path (size - 9);
      expect_load_failure "truncated data section" path);
  with_temp_snapshot (fun path ->
      save_sample path;
      truncate_file path 11;
      expect_load_failure "truncated header" path);
  with_temp_snapshot (fun path ->
      Sys.remove path;
      expect_load_failure "missing file" path)

(* ------------------------------------------------------------------ *)
(* Snapshots of the real state: empirical pool, sketch, Delphi panel *)

let tail_cutoff_pool_snapshot () =
  (* A tail-cutoff posterior pool: sample it into a column, snapshot it,
     and check the restored pool answers order-statistic queries with
     the very same bits — mmapped restore included. *)
  let belief =
    Dist.Mixture.of_dist (Dist.Lognormal.of_mode_sigma ~mode:3e-3 ~sigma:1.0)
  in
  let post = Experience.Tail_cutoff.after_demands belief ~n:500 in
  let n = 4096 in
  let col = Numerics.Columns.make n 0.0 in
  let rng = rng_of_seed 31 in
  Dist.Mixture.sample_into_col post rng
    (Numerics.Columns.unsafe_data col)
    ~pos:0 ~len:n;
  with_temp_snapshot (fun path ->
      Numerics.Columns.save path [ ("pool", col) ];
      let restored = Numerics.Columns.find (Numerics.Columns.load ~mmap:true path) "pool" in
      check_true "pool bits survive the mmap round trip"
        (columns_equal_bitwise col restored);
      let q emp p = Dist.Empirical.quantile emp p in
      (* Distinct empiricals: quantile reorders shared storage in place,
         so each side gets its own. *)
      let e0 = Dist.Empirical.of_column ~share:true (Numerics.Columns.copy col) in
      let e1 = Dist.Empirical.of_column ~share:true restored in
      List.iter
        (fun p ->
          check_bits (Printf.sprintf "restored quantile p=%g" p) (q e0 p)
            (q e1 p))
        [ 0.05; 0.5; 0.95; 0.99 ])

let sketch_snapshot () =
  (* A chunk-order merged sketch (the parallel reduction's output) must
     survive to_columns -> save -> load ~mmap:true -> of_columns with
     identical count and quantile bits. *)
  let parts =
    List.init 8 (fun i ->
        let rng = rng_of_seed (500 + i) in
        let sk = Numerics.Sketch.create () in
        for _ = 1 to 10_000 do
          Numerics.Sketch.add sk (Numerics.Rng.float rng)
        done;
        sk)
  in
  let merged = List.fold_left Numerics.Sketch.merge (Numerics.Sketch.create ()) parts in
  with_temp_snapshot (fun path ->
      Numerics.Columns.save path (Numerics.Sketch.to_columns merged);
      let restored = Numerics.Sketch.of_columns (Numerics.Columns.load ~mmap:true path) in
      Alcotest.(check int) "count" (Numerics.Sketch.count merged)
        (Numerics.Sketch.count restored);
      List.iter
        (fun p ->
          check_bits (Printf.sprintf "sketch quantile p=%g" p)
            (Numerics.Sketch.quantile merged p)
            (Numerics.Sketch.quantile restored p))
        [ 0.0; 0.01; 0.5; 0.99; 1.0 ])

let merge_into_matches_merge () =
  let parts =
    List.init 6 (fun i ->
        let rng = rng_of_seed (700 + i) in
        let sk = Numerics.Sketch.create () in
        for _ = 1 to 5_000 do
          Numerics.Sketch.add sk (Numerics.Rng.float rng)
        done;
        sk)
  in
  let merged = List.fold_left Numerics.Sketch.merge (Numerics.Sketch.create ()) parts in
  let acc = Numerics.Sketch.create () in
  List.iter (fun sk -> Numerics.Sketch.merge_into ~into:acc sk) parts;
  Alcotest.(check int) "count" (Numerics.Sketch.count merged)
    (Numerics.Sketch.count acc);
  List.iter
    (fun p ->
      check_bits (Printf.sprintf "merge_into quantile p=%g" p)
        (Numerics.Sketch.quantile merged p)
        (Numerics.Sketch.quantile acc p))
    [ 0.0; 0.05; 0.5; 0.95; 1.0 ]

let delphi_panel_snapshot () =
  (* Restore the final panel from an mmapped snapshot and check the
     downstream confidence number (the experiment fragment) reproduces
     bit-for-bit. *)
  let result = Elicit.Delphi.run Elicit.Delphi.default_config in
  let final = Elicit.Delphi.final result in
  let experts = final.Elicit.Delphi.experts in
  with_temp_snapshot (fun path ->
      Numerics.Columns.save path (Elicit.Delphi.experts_to_columns experts);
      let restored =
        Elicit.Delphi.experts_of_columns (Numerics.Columns.load ~mmap:true path)
      in
      check_true "experts round-trip exactly" (restored = experts);
      let confidence es =
        let believers =
          List.filter (fun e -> e.Elicit.Delphi.profile = Elicit.Delphi.Believer) es
        in
        let pool =
          Elicit.Pool.linear
            (Elicit.Pool.equal_weights
               (List.map
                  (fun e -> Dist.Mixture.of_dist (Elicit.Delphi.belief_of e))
                  believers))
        in
        Dist.Mixture.prob_le pool 1e-2
      in
      check_bits "P(SIL2+) from the restored panel"
        final.Elicit.Delphi.confidence_sil2 (confidence restored))

(* ------------------------------------------------------------------ *)
(* Column kernels replay their scalar references bit for bit *)

let mixture8 =
  Dist.Mixture.make
    [ (0.2, Dist.Mixture.Atom 0.0);
      (0.1, Dist.Mixture.Atom 1e-3);
      (0.1, Dist.Mixture.Cont (Dist.Lognormal.make ~mu:(-9.0) ~sigma:0.8));
      (0.1, Dist.Mixture.Cont (Dist.Lognormal.make ~mu:(-8.0) ~sigma:0.9));
      (0.1, Dist.Mixture.Cont (Dist.Lognormal.make ~mu:(-7.0) ~sigma:1.0));
      (0.1, Dist.Mixture.Cont (Dist.Lognormal.make ~mu:(-6.0) ~sigma:1.1));
      (0.2, Dist.Mixture.Cont (Dist.Lognormal.make ~mu:(-5.0) ~sigma:1.2));
      (0.1, Dist.Mixture.Cont (Dist.Lognormal.make ~mu:(-4.0) ~sigma:1.3)) ]

let check_mixture_stream name t ~seed ~len =
  let col = Numerics.Columns.make (len + 2) Float.nan in
  let a = rng_of_seed seed and b = rng_of_seed seed in
  Dist.Mixture.sample_into_col t a (Numerics.Columns.unsafe_data col) ~pos:1
    ~len;
  let expected = Mc_oracle.mixture_stream t b len in
  Array.iteri
    (fun i x ->
      let got = Numerics.Columns.get col (1 + i) in
      if bits x <> bits got then
        Alcotest.failf "%s: slot %d: expected %h, got %h" name i x got)
    expected;
  check_true (name ^ ": generator left where the scalar calls leave it")
    (Numerics.Rng.bits64 a = Numerics.Rng.bits64 b);
  check_true (name ^ ": slots outside the segment untouched")
    (Float.is_nan (Numerics.Columns.get col 0)
    && Float.is_nan (Numerics.Columns.get col (len + 1)))

let mixture_col_bit_identical () =
  let logn = Dist.Mixture.Cont (Dist.Lognormal.make ~mu:(-7.0) ~sigma:1.0) in
  check_mixture_stream "8 components" mixture8 ~seed:77 ~len:8192;
  check_mixture_stream "all atoms"
    (Dist.Mixture.make
       [ (0.5, Dist.Mixture.Atom 0.0); (0.3, Dist.Mixture.Atom 1e-4);
         (0.2, Dist.Mixture.Atom 1.0) ])
    ~seed:78 ~len:1000;
  check_mixture_stream "one continuous component"
    (Dist.Mixture.make [ (1.0, logn) ]) ~seed:79 ~len:1000;
  check_mixture_stream "one atom" (Dist.Mixture.atom 0.25) ~seed:80 ~len:10;
  check_mixture_stream "worst-case belief (two components)"
    (Confidence.Conservative.worst_case_belief
       (Confidence.Claim.make ~bound:1e-3 ~confidence:0.99))
    ~seed:81 ~len:5000;
  (* A uniform exactly on the cumulative boundary selects the upper
     component, as scalar [sample] does: make the first weight equal to
     the first uniform the generator will draw (u0 >= 1/2, so u0 and
     1 - u0 are exact and sum to exactly 1). *)
  let seed =
    let s = ref 100 in
    while Numerics.Rng.float (rng_of_seed !s) < 0.5 do
      incr s
    done;
    !s
  in
  let u0 = Numerics.Rng.float (rng_of_seed seed) in
  List.iter
    (fun (name, upper) ->
      let t =
        Dist.Mixture.make [ (u0, Dist.Mixture.Atom 0.0); (1.0 -. u0, upper) ]
      in
      check_bits (name ^ ": cum.(0) is the first uniform") u0
        (Numerics.Columns.get (Dist.Mixture.cum_col t) 0);
      check_mixture_stream name t ~seed ~len:64;
      let col = Numerics.Columns.make 1 Float.nan in
      Dist.Mixture.sample_into_col t (rng_of_seed seed)
        (Numerics.Columns.unsafe_data col) ~pos:0 ~len:1;
      check_true (name ^ ": boundary uniform picks the upper component")
        (Numerics.Columns.get col 0 <> 0.0))
    [ ("boundary tie, two atoms", Dist.Mixture.Atom 1.0);
      ("boundary tie, atom and density", logn) ]

let mixture_cum_column () =
  let cum = Dist.Mixture.cum_col mixture8 in
  let k = Numerics.Columns.length cum in
  Alcotest.(check int) "component count" 8 k;
  check_bits "last entry pinned to 1" 1.0 (Numerics.Columns.get cum (k - 1));
  for i = 1 to k - 1 do
    check_true "cum monotone"
      (Numerics.Columns.get cum (i - 1) <= Numerics.Columns.get cum i)
  done

let mc_batched_col_bit_identical () =
  (* [fill_col_of_scalar f] replays the scalar stream, so the batched
     estimate must equal [estimate_par] over [f], one segment per chunk
     or several. *)
  let f rng = Numerics.Rng.normal rng ~mu:0.0 ~sigma:1.0 in
  List.iter
    (fun (chunks, n) ->
      let e1 = Mc_oracle.estimate_par ~chunks ~n ~seed:42 f in
      let e2 =
        Sim.Mc.estimate_par_batched_col ~chunks ~n ~seed:42 (fun () ->
            Sim.Mc.fill_col_of_scalar f)
      in
      let tag = Printf.sprintf "chunks %d, n %d: " chunks n in
      check_bits (tag ^ "mean") e1.Sim.Mc.mean e2.Sim.Mc.mean;
      check_bits (tag ^ "std_error") e1.Sim.Mc.std_error e2.Sim.Mc.std_error;
      check_bits (tag ^ "ci95_lo") e1.Sim.Mc.ci95_lo e2.Sim.Mc.ci95_lo;
      check_bits (tag ^ "ci95_hi") e1.Sim.Mc.ci95_hi e2.Sim.Mc.ci95_hi;
      Alcotest.(check int) (tag ^ "n") e1.Sim.Mc.n e2.Sim.Mc.n)
    [ (8, 20_000); (2, (3 * Sim.Mc.batch_size) + 17) ]

let mc_sketch_col_bit_identical () =
  let f rng = Numerics.Rng.float rng in
  List.iter
    (fun (chunks, n) ->
      let s1 = Mc_oracle.sketch_fan_out ~chunks ~n ~seed:43 f in
      let s2 =
        Sim.Mc.sketch_par_col ~chunks ~n ~seed:43 (fun () ->
            Sim.Mc.fill_col_of_scalar f)
      in
      let tag = Printf.sprintf "chunks %d, n %d: " chunks n in
      Alcotest.(check int) (tag ^ "count") (Numerics.Sketch.count s1)
        (Numerics.Sketch.count s2);
      Alcotest.(check int) (tag ^ "centroids")
        (Numerics.Sketch.centroid_count s1)
        (Numerics.Sketch.centroid_count s2);
      List.iter
        (fun p ->
          check_bits (Printf.sprintf "%squantile p=%g" tag p)
            (Numerics.Sketch.quantile s1 p)
            (Numerics.Sketch.quantile s2 p))
        [ 0.0; 0.05; 0.5; 0.95; 1.0 ])
    [ (8, 20_000); (2, (3 * Sim.Mc.batch_size) + 17) ]

(* ------------------------------------------------------------------ *)
(* Empirical sharing contract *)

let empirical_share_contract () =
  let xs = Array.init 1000 (fun i -> sin (float_of_int i)) in
  (* share:false — the input column's bits are never disturbed. *)
  let col = Numerics.Columns.of_array xs in
  let before = Numerics.Columns.copy col in
  let e = Dist.Empirical.of_column col in
  check_true "not shared" (not (Dist.Empirical.shared e));
  let q_owned = Dist.Empirical.quantile e 0.9 in
  check_true "share:false leaves the input untouched"
    (columns_equal_bitwise before col);
  (* share:true — same quantile bits, single buffer (reordered in
     place), multiset preserved. *)
  let col2 = Numerics.Columns.of_array xs in
  let e2 = Dist.Empirical.of_column ~share:true col2 in
  check_true "shared" (Dist.Empirical.shared e2);
  check_bits "same quantile either way" q_owned
    (Dist.Empirical.quantile e2 0.9);
  let sorted_of c =
    let c' = Numerics.Columns.copy c in
    Numerics.Columns.sort c';
    c'
  in
  check_true "share:true preserves the multiset"
    (columns_equal_bitwise (sorted_of before) (sorted_of col2))

let suite =
  [ case "grow, convert, clear" grow_and_convert;
    case "sub_view aliases and refuses growth" view_aliasing;
    case "blit has memmove semantics" blit_overlap;
    sort_matches_array_sort;
    snapshot_roundtrip;
    case "corrupt snapshots fail cleanly" corrupt_snapshots_rejected;
    case "tail-cutoff pool snapshot (mmap, bitwise)" tail_cutoff_pool_snapshot;
    case "sketch snapshot (mmap, bitwise)" sketch_snapshot;
    case "merge_into is bit-identical to merge" merge_into_matches_merge;
    case "Delphi panel snapshot reproduces fragments" delphi_panel_snapshot;
    case "8-component sample_into_col bit-identical" mixture_col_bit_identical;
    case "cumulative-weight column well-formed" mixture_cum_column;
    case "estimate_par_batched_col bit-identical" mc_batched_col_bit_identical;
    case "sketch_par_col bit-identical" mc_sketch_col_bit_identical;
    case "Empirical sharing contract" empirical_share_contract ]
