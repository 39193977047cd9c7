module Rng = Numerics.Rng

let node_count ~legs ~fanout ~depth =
  if legs < 1 || fanout < 1 || depth < 1 then
    invalid_arg "Generate.node_count: legs, fanout, depth must be >= 1";
  let sub = ref 1 in
  for _ = 1 to depth do
    sub := 1 + (fanout * !sub)
  done;
  1 + (legs * !sub)

let case ?(seed = 61508) ?(legs = 3) ?(fanout = 4) ?(depth = 3)
    ?(shared = 0.0) ?(leaf = (0.95, 0.999)) () =
  if legs < 1 || fanout < 1 || depth < 1 then
    invalid_arg "Generate.case: legs, fanout, depth must be >= 1";
  if not (shared >= 0.0 && shared <= 1.0) then
    invalid_arg "Generate.case: shared must be in [0,1]";
  let lo, hi = leaf in
  if not (lo > 0.0 && lo < hi && hi <= 1.0) then
    invalid_arg "Generate.case: leaf range must satisfy 0 < lo < hi <= 1";
  let rng = Rng.create seed in
  let b = Graph.Builder.create ~capacity:(node_count ~legs ~fanout ~depth) () in
  (* Evidence emitted by leg 0 is the pool later legs draw shared
     citations from. *)
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
  (* The children of the open goals, innermost last: a goal's children
     are a slice of one reused array, handed to the builder by position,
     so no array is made per goal. *)
  let kids = ref (Array.make 64 0) in
  let top = ref 0 in
  let push i =
    if !top = Array.length !kids then begin
      let bigger = Array.make (2 * !top) 0 in
      Array.blit !kids 0 bigger 0 !top;
      kids := bigger
    end;
    !kids.(!top) <- i;
    incr top
  in
  (* Explicit recursion over (leg, remaining depth); children are emitted
     left to right in a plain loop — never Array.init, whose evaluation
     order is unspecified and would scramble the RNG stream. *)
  let rec gen leg d =
    if d = 0 then
      if leg > 0 && shared > 0.0 && !pool_len > 0 && Rng.bernoulli rng shared
      then !pool.(Rng.int rng !pool_len)
      else begin
        let c = Rng.uniform rng lo hi in
        let i = Graph.Builder.evidence b ~confidence:c () in
        if leg = 0 && shared > 0.0 then pool_push i;
        i
      end
    else begin
      let base = !top in
      for _ = 1 to fanout do
        let i = gen leg (d - 1) in
        push i
      done;
      let combinator =
        if d < depth && Rng.bernoulli rng 0.2 then Node.Any else Node.All
      in
      let g = Graph.Builder.goal b ~combinator ~pos:base ~len:fanout !kids in
      top := base;
      g
    end
  in
  let leg_roots = Array.make legs 0 in
  for j = 0 to legs - 1 do
    leg_roots.(j) <- gen j depth
  done;
  let root =
    Graph.Builder.goal b ~id:"root"
      ~combinator:(if legs >= 2 then Node.Any else Node.All)
      leg_roots
  in
  Graph.Builder.build b ~root
