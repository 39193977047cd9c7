(* The eager graph build, kept as the oracle of the lazy one.

   [Graph.Builder.build] used to derive everything at once: the parent
   CSR by counting sort over the child array, each node's level and the
   level schedule, the shared-evidence overlap of every [any] goal from
   the parent counts, and fresh dirty maps and hash column.  It now
   copies nothing, derives the overlap only when some node has two
   parents, and builds the rest on first use.  [of_graph] redoes the old
   eager derivation from a graph's inputs alone (kinds, children, base
   confidences, assumption-validity products), read through the public
   accessors, and the kernels below are the sequential propagation,
   interval sweep, structural hash and kill-set pass over those eager
   structures, in the arithmetic the library runs.  The lazy graph must
   agree with them bit for bit, whatever it was asked first.

   [generate] is [Casekit.Generate.case] as it was before it filled its
   children through one reused array: an [Array.make fanout] per goal,
   the same RNG draws in the same order. *)

module G = Casekit.Graph

type t = {
  n : int;
  root : int;
  kinds : G.kind array;
  child_off : int array;
  child : int array;
  base : float array;
  avalid : float array;
  parent_off : int array;
  parent : int array;
  height : int;
  level_off : int array;
  level_nodes : int array;
  overlap : float array;
}

let of_graph g =
  let n = G.size g in
  let kinds = Array.init n (G.kind_of g) in
  let child_off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    child_off.(i + 1) <- child_off.(i) + G.child_count g i
  done;
  let child = Array.concat (List.init n (G.children g)) in
  let base = Array.init n (G.base_confidence g) in
  let avalid = Array.init n (G.assumption_validity g) in
  (* Parent CSR by counting sort over the child array. *)
  let parent_off = Array.make (n + 1) 0 in
  Array.iter (fun c -> parent_off.(c + 1) <- parent_off.(c + 1) + 1) child;
  for i = 0 to n - 1 do
    parent_off.(i + 1) <- parent_off.(i + 1) + parent_off.(i)
  done;
  let parent = Array.make (max (Array.length child) 1) 0 in
  let cursor = Array.sub parent_off 0 n in
  for i = 0 to n - 1 do
    for e = child_off.(i) to child_off.(i + 1) - 1 do
      let c = child.(e) in
      parent.(cursor.(c)) <- i;
      cursor.(c) <- cursor.(c) + 1
    done
  done;
  (* Levels: leaves at 0, goal = 1 + max child level. *)
  let levels = Array.make n 0 in
  let height = ref 1 in
  for i = 0 to n - 1 do
    if kinds.(i) <> G.Evidence then begin
      let m = ref 0 in
      for e = child_off.(i) to child_off.(i + 1) - 1 do
        m := max !m levels.(child.(e))
      done;
      levels.(i) <- !m + 1;
      height := max !height (!m + 2)
    end
  done;
  let height = !height in
  let level_off = Array.make (height + 1) 0 in
  Array.iter (fun l -> level_off.(l + 1) <- level_off.(l + 1) + 1) levels;
  for l = 0 to height - 1 do
    level_off.(l + 1) <- level_off.(l + 1) + level_off.(l)
  done;
  let level_nodes = Array.make n 0 in
  let lcursor = Array.sub level_off 0 height in
  for i = 0 to n - 1 do
    let l = levels.(i) in
    level_nodes.(lcursor.(l)) <- i;
    lcursor.(l) <- lcursor.(l) + 1
  done;
  (* Overlap: for each [any] goal whose subtree holds a node with two or
     more parents, shared over distinct evidence reachable from its
     legs, each leg's reach found by a fresh DFS. *)
  let multi = Array.make n false in
  for i = 0 to n - 1 do
    multi.(i) <- parent_off.(i + 1) - parent_off.(i) >= 2;
    for e = child_off.(i) to child_off.(i + 1) - 1 do
      if multi.(child.(e)) then multi.(i) <- true
    done
  done;
  let overlap = Array.make n 0.0 in
  for gi = 0 to n - 1 do
    let nkids = child_off.(gi + 1) - child_off.(gi) in
    if kinds.(gi) = G.Any_goal && multi.(gi) && nkids >= 2 then begin
      let first_leg = Hashtbl.create 16 and shared = Hashtbl.create 16 in
      for leg = 0 to nkids - 1 do
        let seen = Hashtbl.create 16 in
        let rec visit v =
          if not (Hashtbl.mem seen v) then begin
            Hashtbl.add seen v ();
            if kinds.(v) = G.Evidence then begin
              match Hashtbl.find_opt first_leg v with
              | None -> Hashtbl.add first_leg v leg
              | Some l -> if l <> leg then Hashtbl.replace shared v ()
            end
            else
              for e = child_off.(v) to child_off.(v + 1) - 1 do
                visit child.(e)
              done
          end
        in
        visit child.(child_off.(gi) + leg)
      done;
      let distinct = Hashtbl.length first_leg in
      if distinct > 0 then
        overlap.(gi) <- float_of_int (Hashtbl.length shared) /. float_of_int distinct
    end
  done;
  { n; root = G.root g; kinds; child_off; child; base; avalid; parent_off; parent;
    height; level_off; level_nodes; overlap }

let is_tree o =
  let ok = ref true in
  for i = 0 to o.n - 1 do
    if o.parent_off.(i + 1) - o.parent_off.(i) >= 2 then ok := false
  done;
  !ok

let parents o i = Array.sub o.parent o.parent_off.(i) (o.parent_off.(i + 1) - o.parent_off.(i))
let max_overlap o = Array.fold_left (fun m v -> if v > m then v else m) 0.0 o.overlap

(* Goal [i]'s children folded under [dep] from [values]: left to right
   from the usual inits, min/max keeping the accumulator on ties. *)
let combine o dep values i =
  let vs = Array.map (fun c -> values.(c)) (Array.sub o.child o.child_off.(i) (o.child_off.(i + 1) - o.child_off.(i))) in
  let rho_at rho = if o.overlap.(i) > rho then o.overlap.(i) else rho in
  let fold f init = Array.fold_left f init vs in
  match (o.kinds.(i), dep) with
  | G.All_goal, G.Independent -> fold ( *. ) 1.0
  | G.All_goal, G.Frechet_lower ->
    let v = fold ( +. ) 0.0 -. (float_of_int (Array.length vs) -. 1.0) in
    if 0.0 >= v then 0.0 else v
  | G.All_goal, G.Frechet_upper -> fold (fun m c -> if m <= c then m else c) 1.0
  | G.All_goal, G.Correlated rho ->
    let rho = rho_at rho in
    ((1.0 -. rho) *. fold ( *. ) 1.0) +. (rho *. fold (fun m c -> if m <= c then m else c) 1.0)
  | _, G.Independent -> 1.0 -. fold (fun acc c -> acc *. (1.0 -. c)) 1.0
  | _, G.Frechet_lower -> fold (fun m c -> if m >= c then m else c) 0.0
  | _, G.Frechet_upper ->
    let s = fold ( +. ) 0.0 in
    if 1.0 <= s then 1.0 else s
  | _, G.Correlated rho ->
    let rho = rho_at rho in
    ((1.0 -. rho) *. (1.0 -. fold (fun acc c -> acc *. (1.0 -. c)) 1.0))
    +. (rho *. fold (fun m c -> if m >= c then m else c) 0.0)

(* The values a full propagation stores, in index order. *)
let propagate o dep =
  let values = Array.make o.n 0.0 in
  for i = 0 to o.n - 1 do
    values.(i) <-
      (if o.kinds.(i) = G.Evidence then o.base.(i) else combine o dep values i *. o.avalid.(i))
  done;
  values

(* The same, level by level through the level schedule. *)
let propagate_levels o dep =
  let values = Array.make o.n 0.0 in
  for l = 0 to o.height - 1 do
    for k = o.level_off.(l) to o.level_off.(l + 1) - 1 do
      let i = o.level_nodes.(k) in
      values.(i) <-
        (if o.kinds.(i) = G.Evidence then o.base.(i) else combine o dep values i *. o.avalid.(i))
    done
  done;
  values

(* The belief-free interval sweep: leaves at [0, 1]. *)
let bounds o dep =
  let sweep leaf =
    let values = Array.make o.n 0.0 in
    for i = 0 to o.n - 1 do
      values.(i) <- (if o.kinds.(i) = G.Evidence then leaf else combine o dep values i *. o.avalid.(i))
    done;
    values
  in
  (sweep 0.0, sweep 1.0)

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let hash_mix h x = mix64 (Int64.add (Int64.mul h 0x9E3779B97F4A7C15L) x)

(* Every node's structural hash, leaf up. *)
let hashes o =
  let h = Array.make o.n 0L in
  for i = 0 to o.n - 1 do
    h.(i) <-
      (match o.kinds.(i) with
      | G.Evidence -> hash_mix 0x2545F4914F6CDD1DL (Int64.bits_of_float o.base.(i))
      | kind ->
        let seed = if kind = G.All_goal then 0x6A09E667F3BCC909L else 0xBB67AE8584CAA73BL in
        let acc = ref (hash_mix seed (Int64.bits_of_float o.avalid.(i))) in
        acc := hash_mix !acc (Int64.bits_of_float o.overlap.(i));
        for e = o.child_off.(i) to o.child_off.(i + 1) - 1 do
          acc := hash_mix !acc h.(o.child.(e))
        done;
        !acc)
  done;
  h

module S = Set.Make (Int)

(* Kill sets as [Set]s: {e} for evidence, union under [all],
   intersection under [any]. *)
let spof_evidence o =
  let kill = Array.make o.n S.empty in
  for i = 0 to o.n - 1 do
    kill.(i) <-
      (match o.kinds.(i) with
      | G.Evidence -> S.singleton i
      | kind ->
        let kids = List.init (o.child_off.(i + 1) - o.child_off.(i)) (fun k -> kill.(o.child.(o.child_off.(i) + k))) in
        let op = if kind = G.All_goal then S.union else S.inter in
        List.fold_left op (List.hd kids) (List.tl kids))
  done;
  Array.of_list (S.elements kill.(o.root))

(* --- the generator before it reused one child array ------------------------- *)

module Rng = Numerics.Rng

let generate ?(seed = 61508) ?(legs = 3) ?(fanout = 4) ?(depth = 3) ?(shared = 0.0)
    ?(leaf = (0.95, 0.999)) () =
  let lo, hi = leaf in
  let rng = Rng.create seed in
  let b = G.Builder.create ~capacity:(Casekit.Generate.node_count ~legs ~fanout ~depth) () in
  let pool = ref (Array.make 1024 0) in
  let pool_len = ref 0 in
  let pool_push i =
    if !pool_len = Array.length !pool then begin
      let np = Array.make (2 * !pool_len) 0 in
      Array.blit !pool 0 np 0 !pool_len;
      pool := np
    end;
    !pool.(!pool_len) <- i;
    incr pool_len
  in
  let rec gen leg d =
    if d = 0 then
      if leg > 0 && shared > 0.0 && !pool_len > 0 && Rng.bernoulli rng shared then
        !pool.(Rng.int rng !pool_len)
      else begin
        let c = Rng.uniform rng lo hi in
        let i = G.Builder.evidence b ~confidence:c () in
        if leg = 0 && shared > 0.0 then pool_push i;
        i
      end
    else begin
      let kids = Array.make fanout 0 in
      for k = 0 to fanout - 1 do
        kids.(k) <- gen leg (d - 1)
      done;
      let combinator = if d < depth && Rng.bernoulli rng 0.2 then Casekit.Node.Any else Casekit.Node.All in
      G.Builder.goal b ~combinator kids
    end
  in
  let leg_roots = Array.make legs 0 in
  for j = 0 to legs - 1 do
    leg_roots.(j) <- gen j depth
  done;
  let root =
    G.Builder.goal b ~id:"root"
      ~combinator:(if legs >= 2 then Casekit.Node.Any else Casekit.Node.All)
      leg_roots
  in
  G.Builder.build b ~root
