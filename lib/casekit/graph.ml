module Columns = Numerics.Columns
module Parallel = Numerics.Parallel

type dependence =
  | Independent
  | Frechet_lower
  | Frechet_upper
  | Correlated of float

type kind = Evidence | All_goal | Any_goal

(* Kind tags, one byte per node. *)
let tag_evidence = '\000'
let tag_all = '\001'
let tag_any = '\002'

(* Growable binary min-heap over node indices.  Popping yields ascending
   indices, i.e. children before parents — the index invariant turned
   into a work queue.  Two instances per graph: one for the value
   frontier, one for the structural-hash frontier. *)
module Iheap = struct
  type h = { mutable a : int array; mutable len : int }

  let create () = { a = [||]; len = 0 }

  let push h i =
    let len = h.len in
    if len = Array.length h.a then begin
      let bigger = Array.make (max 16 (2 * len)) 0 in
      Array.blit h.a 0 bigger 0 len;
      h.a <- bigger
    end;
    let a = h.a in
    a.(len) <- i;
    h.len <- len + 1;
    let j = ref len in
    while !j > 0 && a.((!j - 1) / 2) > a.(!j) do
      let p = (!j - 1) / 2 in
      let tmp = a.(p) in
      a.(p) <- a.(!j);
      a.(!j) <- tmp;
      j := p
    done

  let pop h =
    let a = h.a in
    let top = a.(0) in
    let len = h.len - 1 in
    h.len <- len;
    if len > 0 then begin
      a.(0) <- a.(len);
      let j = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !j) + 1 and r = (2 * !j) + 2 in
        let s = ref !j in
        if l < len && a.(l) < a.(!s) then s := l;
        if r < len && a.(r) < a.(!s) then s := r;
        if !s = !j then continue := false
        else begin
          let tmp = a.(!s) in
          a.(!s) <- a.(!j);
          a.(!j) <- tmp;
          j := !s
        end
      done
    end;
    top
end

(* Node text lives in one string per graph: ids and statements are
   (offset, length) spans into it, so a graph of 10^6 named nodes holds
   one block of bytes rather than two million strings.  A graph loaded
   from a document keeps the document itself; a builder fed strings
   ({!Builder.evidence}/{!goal}) appends them to a growable arena, and
   the built graph keeps the arena's bytes.  Neither is written again
   once the graph is built. *)
module Arena = struct
  type t = { mutable bytes : Bytes.t; mutable len : int }

  let create n = { bytes = Bytes.create (max n 16); len = 0 }

  (* The document as a full arena: [add] copies it into a fresh buffer
     before appending anything, so its bytes are never written. *)
  let of_string s = { bytes = Bytes.unsafe_of_string s; len = String.length s }

  (* [add a s at n] — append [s.[at..at+n)]; returns where it landed. *)
  let add a s at n =
    let cap = Bytes.length a.bytes in
    if a.len + n > cap then begin
      let bigger = Bytes.create (max (2 * cap) (a.len + n)) in
      Bytes.blit a.bytes 0 bigger 0 a.len;
      a.bytes <- bigger
    end;
    let at' = a.len in
    if n > 0 then Bytes.blit_string s at a.bytes at' n;
    a.len <- at' + n;
    at'
end

(* Interned ids: [Intern] keeps positions, and a position names a text
   span and a value, so interning an id allocates no bucket and hashes
   and compares the text's bytes in place.  A span is an (offset,
   length) pair.  Positions below [nodes] are node indices: position [j]
   is node [j]'s own id span (node_at.(j), node_len.(j)) with value [j],
   so a document's node ids take no second copy of their spans.
   Position [nodes + k] is the span (at.(k), len.(k)) with value
   [vals.(k)].  A builder fed a document's own id
   table ({!Builder.of_text}) takes its positions and span columns as
   given instead of interning again. *)
module Ids = struct
  type t = {
    table : Intern.t;
    nodes : int;
    node_at : int array;
    node_len : int array;
    mutable at : int array;
    mutable len : int array;
    mutable vals : int array;
    mutable count : int;
    (* The span [add] compares positions against, [bytes.[key_at ..
       key_at + key_len)] of the text's current bytes.  One closure
       reads it, so interning allocates nothing. *)
    mutable bytes : string;
    mutable key_at : int;
    mutable key_len : int;
    same : int -> bool;
  }

  let span_at t j = if j < t.nodes then t.node_at.(j) else t.at.(j - t.nodes)
  let span_len t j = if j < t.nodes then t.node_len.(j) else t.len.(j - t.nodes)

  let make ?(nodes = 0) ?(node_at = [||]) ?(node_len = [||]) table at len vals =
    let rec t =
      { table; nodes; node_at; node_len; at; len; vals; count = 0; bytes = ""; key_at = 0;
        key_len = 0;
        same =
          (fun j ->
            span_len t j = t.key_len
            && Intern.span_equal t.bytes (span_at t j) t.bytes t.key_at t.key_len) }
    in
    t

  let create n =
    let n = max n 1 in
    make (Intern.create n) (Array.make n 0) (Array.make n 0) (Array.make n 0)

  (* A document's table: position [k] is already interned as the span
     (at.(k), len.(k)); only the values are new. *)
  let preset table at len = make table at len (Array.make (Array.length at) 0)

  (* Room for the ids of [nodes] nodes, spans [at]/[len], and [extra]
     more. *)
  let of_nodes ~nodes at len ~extra =
    let m = max extra 1 in
    make ~nodes ~node_at:at ~node_len:len (Intern.create (nodes + extra)) (Array.make m 0)
      (Array.make m 0) (Array.make m 0)

  let grow t k =
    let n = Array.length t.at in
    if k >= n then begin
      let m = max (2 * n) (k + 1) in
      let extend a = Array.append a (Array.make (m - n) 0) in
      t.at <- extend t.at;
      t.len <- extend t.len;
      t.vals <- extend t.vals
    end

  (* A lookup on a built graph makes its own closure rather than share the
     probe, so reads stay free of writes. *)
  let find_opt t text id =
    let n = String.length id in
    let same j = span_len t j = n && Intern.span_equal text (span_at t j) id 0 n in
    let j = Intern.find t.table (Intern.span_hash id 0 n) same in
    if j < 0 then None else if j < t.nodes then Some j else Some t.vals.(j - t.nodes)

  (* [intern t arena at len j] — intern the arena span (at, len) at
     position [j]; [false] when an equal id is already in. *)
  let intern t (arena : Arena.t) at len j =
    let bytes = Bytes.unsafe_to_string arena.bytes in
    t.bytes <- bytes;
    t.key_at <- at;
    t.key_len <- len;
    Intern.intern t.table (Intern.span_hash bytes at len) t.same j = j

  (* [add t arena at len v] — intern the arena span (at, len) at the next
     position; [false], and no change, when an equal id is already in. *)
  let add t arena at len v =
    let k = t.count in
    intern t arena at len (t.nodes + k)
    && begin
      grow t k;
      t.at.(k) <- at;
      t.len.(k) <- len;
      t.vals.(k) <- v;
      t.count <- k + 1;
      true
    end

  (* [add_node t arena i] — intern node [i]'s own id span at position
     [i]. *)
  let add_node t arena i = intern t arena t.node_at.(i) t.node_len.(i) i
end

(* A graph's columns keep the capacity the builder gave them: [n] and
   [edges] say how much of each is in use, so building copies nothing.
   What only some callers read is derived on first use: the parent CSR
   (edits, {!spof_evidence}, {!parents}), the level schedule
   ({!propagate_par}), the dirty maps (edits) and the hash column
   ({!structural_hash}).  An empty array, byte map or column marks one
   not built yet. *)
type t = {
  n : int;
  edges : int;
  root : int;
  kinds : Bytes.t;
  (* CSR adjacency: children of [i] are child.(child_off.(i)) ..
     child.(child_off.(i+1) - 1), in emission order; parents likewise.
     Children always have smaller indices than their parents, so index
     order is a topological order. *)
  child_off : int array;
  child : int array;
  mutable parent_off : int array;
  mutable parent : int array;
  (* Whether some node has two or more parent edges: [is_tree] is its
     negation, and without one no goal has shared-evidence overlap. *)
  shared : bool;
  (* Node [i]'s id is the text span (id_at.(i), id_len.(i)) (empty =
     anonymous) and its statement (st_at.(i), st_len.(i)). *)
  text : string;
  id_at : int array;
  id_len : int array;
  st_at : int array;
  st_len : int array;
  (* One namespace for node and assumption ids: a node id maps to its
     index (>= 0), an assumption id to [lnot] of its owning goal (< 0). *)
  index : Ids.t;
  assumption_lists : Node.assumption list array;
  base : Columns.t; (* evidence confidence (0 for goals) *)
  avalid : Columns.t; (* product of assumption validities *)
  overlap : Columns.t; (* shared-evidence fraction of Any goals *)
  value : Columns.t; (* last propagated values *)
  (* Level schedule: level 0 = leaves, level of a goal = 1 + max child
     level, recorded as each node is emitted.  level_nodes.(level_off.(l))
     .. are the indices at level l, ascending. *)
  height : int;
  level : int array;
  mutable level_off : int array;
  mutable level_nodes : int array;
  (* Incremental state: dirty.(i) set iff i is in the heap; the heap is a
     binary min-heap over indices, so refresh pops children before
     parents. *)
  mutable dirty : Bytes.t;
  heap : Iheap.h;
  mutable last_dep : dependence option;
  (* Structural-hash state: one more unboxed column (int64 bits rather
     than float64), maintained by the same dirty-frontier discipline as
     the value column.  [shash] is only meaningful once [hash_valid];
     the first {!structural_hash} query makes it and pays one full
     leaf-up pass, and edits thereafter mark [hdirty]/[hheap] so
     re-hashing touches only the edited cone. *)
  mutable shash : (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable hash_valid : bool;
  mutable hdirty : Bytes.t;
  hheap : Iheap.h;
}

let mark_dirty t i =
  if Bytes.get t.dirty i = '\000' then begin
    Bytes.set t.dirty i '\001';
    Iheap.push t.heap i
  end

let clear_dirty t =
  for k = 0 to t.heap.Iheap.len - 1 do
    Bytes.set t.dirty t.heap.Iheap.a.(k) '\000'
  done;
  t.heap.Iheap.len <- 0

let mark_hash_dirty t i =
  if Bytes.get t.hdirty i = '\000' then begin
    Bytes.set t.hdirty i '\001';
    Iheap.push t.hheap i
  end

(* --- derived on first use ------------------------------------------------------ *)

(* Parent CSR by counting sort over the child array. *)
let parents_built t =
  if Array.length t.parent_off = 0 then begin
    let n = t.n in
    let parent_off = Array.make (n + 1) 0 in
    for e = 0 to t.edges - 1 do
      let c = t.child.(e) in
      parent_off.(c + 1) <- parent_off.(c + 1) + 1
    done;
    for i = 0 to n - 1 do
      parent_off.(i + 1) <- parent_off.(i + 1) + parent_off.(i)
    done;
    let parent = Array.make (max t.edges 1) 0 in
    let cursor = Array.sub parent_off 0 n in
    for i = 0 to n - 1 do
      for e = t.child_off.(i) to t.child_off.(i + 1) - 1 do
        let c = t.child.(e) in
        parent.(cursor.(c)) <- i;
        cursor.(c) <- cursor.(c) + 1
      done
    done;
    t.parent <- parent;
    t.parent_off <- parent_off
  end

(* The level schedule by counting sort over the recorded levels. *)
let levels_built t =
  if Array.length t.level_off = 0 then begin
    let height = t.height in
    let level_off = Array.make (height + 1) 0 in
    for i = 0 to t.n - 1 do
      let l = t.level.(i) in
      level_off.(l + 1) <- level_off.(l + 1) + 1
    done;
    for l = 0 to height - 1 do
      level_off.(l + 1) <- level_off.(l + 1) + level_off.(l)
    done;
    let level_nodes = Array.make t.n 0 in
    let cursor = Array.sub level_off 0 height in
    for i = 0 to t.n - 1 do
      let l = t.level.(i) in
      level_nodes.(cursor.(l)) <- i;
      cursor.(l) <- cursor.(l) + 1
    done;
    t.level_nodes <- level_nodes;
    t.level_off <- level_off
  end

(* What an edit reads: the dirty map, and the parent CSR a refresh
   marks parents through. *)
let edits_built t =
  if Bytes.length t.dirty = 0 then begin
    parents_built t;
    t.dirty <- Bytes.make t.n '\000'
  end

(* --- shared-evidence overlap ----------------------------------------------- *)

(* For each Any goal whose subtree contains a multi-parent node: the
   fraction of distinct evidence items under the goal that are reachable
   from two or more of its legs.  Computed once at build time — the
   overlap depends only on structure, which edits never change — and the
   same count/count quotient the C009 rule reports, so the static warning
   and the quantitative penalty agree on the number.  [parents.[i]] is
   node [i]'s count of parent edges, stopped at 2; the builder calls this
   only when some count reached 2, so a tree skips it. *)
let compute_overlap ~n ~kinds ~child_off ~child ~parents ~overlap =
  (* multi.(i): does i's subtree (including i) contain a node with >= 2
     parents?  Children precede parents, so one ascending pass works. *)
  let multi = Array.make n false in
  for i = 0 to n - 1 do
    let m = ref (Bytes.get parents i >= '\002') in
    let e = ref child_off.(i) in
    let lim = child_off.(i + 1) in
    while (not !m) && !e < lim do
      if multi.(child.(!e)) then m := true;
      incr e
    done;
    multi.(i) <- !m
  done;
  (* Ticket-stamped scratch: visit deduplicates nodes within one leg's
     DFS; ev_goal/ev_leg track, per goal, which leg first cited each
     evidence item (-1 = already counted as shared). *)
  let visit = Array.make n (-1) in
  let ev_goal = Array.make n (-1) in
  let ev_leg = Array.make n 0 in
  let ticket = ref 0 in
  let stack = ref (Array.make 1024 0) in
  let top = ref 0 in
  let push v =
    if !top = Array.length !stack then begin
      let ns = Array.make (2 * !top) 0 in
      Array.blit !stack 0 ns 0 !top;
      stack := ns
    end;
    !stack.(!top) <- v;
    incr top
  in
  for gi = 0 to n - 1 do
    if
      Bytes.get kinds gi = tag_any
      && multi.(gi)
      && child_off.(gi + 1) - child_off.(gi) >= 2
    then begin
      let distinct = ref 0 and shared = ref 0 in
      let nkids = child_off.(gi + 1) - child_off.(gi) in
      for leg = 0 to nkids - 1 do
        incr ticket;
        let tk = !ticket in
        push child.(child_off.(gi) + leg);
        while !top > 0 do
          decr top;
          let v = !stack.(!top) in
          if visit.(v) <> tk then begin
            visit.(v) <- tk;
            if Bytes.get kinds v = tag_evidence then begin
              if ev_goal.(v) <> gi then begin
                ev_goal.(v) <- gi;
                ev_leg.(v) <- leg;
                incr distinct
              end
              else if ev_leg.(v) >= 0 && ev_leg.(v) <> leg then begin
                ev_leg.(v) <- -1;
                incr shared
              end
            end
            else
              for e = child_off.(v) to child_off.(v + 1) - 1 do
                push child.(e)
              done
          end
        done
      done;
      if !distinct > 0 then
        Columns.set overlap gi
          (float_of_int !shared /. float_of_int !distinct)
    end
  done

(* --- builder ---------------------------------------------------------------- *)

(* The assumption-validity product of a goal, folded in list order: the
   builder and [set_assumption] both store it, so an edit reverted to the
   old validity restores the old bits. *)
let validity_product assumptions =
  List.fold_left (fun acc (a : Node.assumption) -> acc *. a.p_valid) 1.0
    assumptions

module Builder = struct
  (* How ids reach the graph's table. *)
  type naming =
    | Eager (* interned as they are emitted: a duplicate raises at once *)
    | Preset (* already interned in the document's table, at their keys *)
    | Deferred (* interned by [build], in one pass over the spans *)

  type b = {
    mutable bn : int;
    mutable bkinds : Bytes.t;
    barena : Arena.t;
    mutable bid_at : int array;
    mutable bid_len : int array;
    mutable bst_at : int array;
    mutable bst_len : int array;
    mutable bassumptions : Node.assumption list array;
    bbase : Columns.t;
    bavalid : Columns.t;
    mutable bchild_off : int array; (* capacity + 1 entries *)
    mutable bchild : int array;
    mutable bchild_len : int;
    mutable blevel : int array;
    mutable bheight : int;
    (* Each node's count of parent edges, stopped at 2. *)
    mutable bparents : Bytes.t;
    mutable bshared : bool;
    bindex : Ids.t;
    naming : naming;
    (* Deferred: each named assumption's span and owner, reversed. *)
    mutable bassumption_ids : (int * int * int) list;
  }

  let make ~capacity ~arena ~index ~naming =
    let cap = max capacity 1 in
    {
      bn = 0;
      bkinds = Bytes.make cap tag_evidence;
      barena = arena;
      bid_at = Array.make cap 0;
      bid_len = Array.make cap 0;
      bst_at = Array.make cap 0;
      bst_len = Array.make cap 0;
      bassumptions = Array.make cap [];
      bbase = Columns.create ~capacity:cap ();
      bavalid = Columns.create ~capacity:cap ();
      bchild_off = Array.make (cap + 1) 0;
      bchild = Array.make (max cap 16) 0;
      bchild_len = 0;
      blevel = Array.make cap 0;
      bheight = 1;
      bparents = Bytes.make cap '\000';
      bshared = false;
      bindex = index;
      naming;
      bassumption_ids = [];
    }

  (* [ids] sizes the id table apart from [capacity]: a generated graph of
     anonymous nodes interns nothing and should not pay for a table. *)
  let create ?(capacity = 16) ?(ids = 64) () =
    make ~capacity ~arena:(Arena.create 64) ~index:(Ids.create ids) ~naming:Eager

  (* Without a table a document's ids are interned at [build]: on a
     10^5-node file one tight pass over the spans takes about a third of
     the time that interning each id between the lexer's lines took. *)
  let of_text ~capacity ?table text =
    let index, naming =
      match table with
      | Some (table, at, len) -> (Ids.preset table at len, Preset)
      | None -> (Ids.create 1, Deferred) (* [index] makes the real one *)
    in
    make ~capacity ~arena:(Arena.of_string text) ~index ~naming

  let grow_nodes b =
    let cap = Bytes.length b.bkinds in
    if b.bn >= cap then begin
      let ncap = 2 * cap in
      let grow_bytes s def =
        let k = Bytes.make ncap def in
        Bytes.blit s 0 k 0 cap;
        k
      in
      b.bkinds <- grow_bytes b.bkinds tag_evidence;
      b.bparents <- grow_bytes b.bparents '\000';
      let garr a def =
        let na = Array.make ncap def in
        Array.blit a 0 na 0 cap;
        na
      in
      b.bid_at <- garr b.bid_at 0;
      b.bid_len <- garr b.bid_len 0;
      b.bst_at <- garr b.bst_at 0;
      b.bst_len <- garr b.bst_len 0;
      b.blevel <- garr b.blevel 0;
      b.bassumptions <- garr b.bassumptions [];
      let noff = Array.make (ncap + 1) 0 in
      Array.blit b.bchild_off 0 noff 0 (cap + 1);
      b.bchild_off <- noff
    end

  let duplicate b at len =
    invalid_arg
      (Printf.sprintf "Graph.Builder: duplicate id %s" (Bytes.sub_string b.barena.bytes at len))

  (* [name b at len key slot] — the id at the arena span (at, len);
     [slot] is the node index, or [lnot owner] for an assumption id.  An
     empty id is anonymous and not interned.  With a preset table the id
     is already interned at position [key]; a deferred node id is read
     back from the node's own span at [build]. *)
  let name b at len key slot =
    if len > 0 then
      match b.naming with
      | Eager -> if not (Ids.add b.bindex b.barena at len slot) then duplicate b at len
      | Preset ->
        if key < 0 then invalid_arg "Graph.Builder: a preset id table needs every id's key";
        b.bindex.vals.(key) <- slot
      | Deferred -> if slot < 0 then b.bassumption_ids <- (at, len, slot) :: b.bassumption_ids

  (* Node [i]'s id and statement: arena spans. *)
  let texts b i ~key ~id ~id_len ~statement ~statement_len =
    name b id id_len key i;
    b.bid_at.(i) <- id;
    b.bid_len.(i) <- id_len;
    b.bst_at.(i) <- statement;
    b.bst_len.(i) <- statement_len

  (* A string's bytes, appended to the arena: its span. *)
  let append b s = Arena.add b.barena s 0 (String.length s)

  let evidence_span b ~key ~id ~id_len ~statement ~statement_len ~confidence =
    if not (confidence > 0.0 && confidence <= 1.0) then
      invalid_arg "Graph.Builder.evidence: confidence must be in (0,1]";
    grow_nodes b;
    let i = b.bn in
    texts b i ~key ~id ~id_len ~statement ~statement_len;
    Bytes.set b.bkinds i tag_evidence;
    Columns.push b.bbase confidence;
    Columns.push b.bavalid 1.0;
    b.bchild_off.(i + 1) <- b.bchild_len;
    b.bn <- i + 1;
    i

  let evidence b ?(id = "") ?(statement = "") ~confidence () =
    let id_at = append b id in
    let st_at = append b statement in
    evidence_span b ~key:(-1) ~id:id_at ~id_len:(String.length id) ~statement:st_at
      ~statement_len:(String.length statement) ~confidence

  let goal_span b ~key ~id ~id_len ~statement ~statement_len ~assumptions ~keys
      ~assumption_ids ~combinator kids ~pos ~len =
    if len = 0 then invalid_arg "Graph.Builder.goal: a goal needs support";
    let level = ref 0 in
    for k = pos to pos + len - 1 do
      let c = kids.(k) in
      if c < 0 || c >= b.bn then
        invalid_arg "Graph.Builder.goal: child index out of range";
      if b.blevel.(c) > !level then level := b.blevel.(c)
    done;
    grow_nodes b;
    let i = b.bn in
    texts b i ~key ~id ~id_len ~statement ~statement_len;
    let rec name_assumptions keys ats = function
      | [] -> ()
      | (a : Node.assumption) :: rest ->
        if not (a.p_valid > 0.0 && a.p_valid <= 1.0) then
          invalid_arg "Graph.Builder.goal: p_valid must be in (0,1]";
        let key, keys = match keys with k :: ks -> (k, ks) | [] -> (-1, []) in
        let at, ats = match ats with a :: r -> (a, r) | [] -> (-1, []) in
        let at = if at < 0 then append b a.aid else at in
        name b at (String.length a.aid) key (lnot i);
        name_assumptions keys ats rest
    in
    name_assumptions keys assumption_ids assumptions;
    Bytes.set b.bkinds i
      (match combinator with Node.All -> tag_all | Node.Any -> tag_any);
    b.bassumptions.(i) <- assumptions;
    Columns.push b.bbase 0.0;
    Columns.push b.bavalid (validity_product assumptions);
    if b.bchild_len + len > Array.length b.bchild then begin
      let ncap = max (2 * Array.length b.bchild) (b.bchild_len + len) in
      let nc = Array.make ncap 0 in
      Array.blit b.bchild 0 nc 0 b.bchild_len;
      b.bchild <- nc
    end;
    Array.blit kids pos b.bchild b.bchild_len len;
    for k = pos to pos + len - 1 do
      let c = kids.(k) in
      if Bytes.get b.bparents c = '\000' then Bytes.set b.bparents c '\001'
      else begin
        Bytes.set b.bparents c '\002';
        b.bshared <- true
      end
    done;
    b.bchild_len <- b.bchild_len + len;
    b.bchild_off.(i + 1) <- b.bchild_len;
    b.blevel.(i) <- !level + 1;
    if !level + 2 > b.bheight then b.bheight <- !level + 2;
    b.bn <- i + 1;
    i

  let goal b ?(id = "") ?(statement = "") ?(assumptions = []) ?(pos = 0) ?len
      ~combinator kids =
    let len = match len with Some l -> l | None -> Array.length kids - pos in
    let id_at = append b id in
    let st_at = append b statement in
    goal_span b ~key:(-1) ~id:id_at ~id_len:(String.length id) ~statement:st_at
      ~statement_len:(String.length statement) ~assumptions ~keys:[]
      ~assumption_ids:[] ~combinator kids ~pos ~len

  (* The deferred ids: node ids by index, then assumption ids in
     document order. *)
  let index b =
    match b.naming with
    | Eager | Preset -> b.bindex
    | Deferred ->
      let assumptions = List.rev b.bassumption_ids in
      let index =
        Ids.of_nodes ~nodes:b.bn b.bid_at b.bid_len ~extra:(List.length assumptions)
      in
      for i = 0 to b.bn - 1 do
        let len = b.bid_len.(i) in
        if len > 0 && not (Ids.add_node index b.barena i) then duplicate b b.bid_at.(i) len
      done;
      List.iter
        (fun (at, len, slot) ->
          if not (Ids.add index b.barena at len slot) then duplicate b at len)
        assumptions;
      index

  let build b ~root =
    if b.bn = 0 then invalid_arg "Graph.Builder.build: empty graph";
    if root < 0 || root >= b.bn then
      invalid_arg "Graph.Builder.build: root out of range";
    let index = index b in
    let n = b.bn in
    (* The builder is consumed: its columns become the graph's own, at
       their capacity. *)
    let overlap = Columns.make n 0.0 in
    if b.bshared then
      compute_overlap ~n ~kinds:b.bkinds ~child_off:b.bchild_off ~child:b.bchild
        ~parents:b.bparents ~overlap;
    {
      n;
      edges = b.bchild_len;
      root;
      kinds = b.bkinds;
      child_off = b.bchild_off;
      child = b.bchild;
      parent_off = [||];
      parent = [||];
      shared = b.bshared;
      text = Bytes.unsafe_to_string b.barena.bytes;
      id_at = b.bid_at;
      id_len = b.bid_len;
      st_at = b.bst_at;
      st_len = b.bst_len;
      index;
      assumption_lists = b.bassumptions;
      base = b.bbase;
      avalid = b.bavalid;
      overlap;
      value = Columns.make n 0.0;
      height = b.bheight;
      level = b.blevel;
      level_off = [||];
      level_nodes = [||];
      dirty = Bytes.empty;
      heap = Iheap.create ();
      last_dep = None;
      shash = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 0;
      hash_valid = false;
      hdirty = Bytes.empty;
      hheap = Iheap.create ();
    }
end

(* --- bridges ---------------------------------------------------------------- *)

type frame = {
  fnode : Node.t;
  mutable pending : Node.t list;
  mutable acc : int list; (* child indices, reversed *)
}

let of_node root_node =
  let n = Node.size root_node in
  let b = Builder.create ~capacity:n ~ids:n () in
  (* Iterative postorder with an explicit frame stack: a 10^5-node chain
     must not overflow the OCaml stack. *)
  let stack = ref [] in
  let result = ref (-1) in
  let finish idx =
    match !stack with [] -> result := idx | f :: _ -> f.acc <- idx :: f.acc
  in
  let start node =
    match node with
    | Node.Evidence e ->
      finish
        (Builder.evidence b ~id:e.id ~statement:e.statement
           ~confidence:e.confidence ())
    | Node.Goal g ->
      stack := { fnode = node; pending = g.supported_by; acc = [] } :: !stack
  in
  start root_node;
  let running = ref (!stack <> []) in
  while !running do
    match !stack with
    | [] -> running := false
    | f :: rest -> (
      match f.pending with
      | c :: more ->
        f.pending <- more;
        start c
      | [] -> (
        stack := rest;
        match f.fnode with
        | Node.Goal g ->
          finish
            (Builder.goal b ~id:g.id ~statement:g.statement
               ~assumptions:g.assumptions ~combinator:g.combinator
               (Array.of_list (List.rev f.acc)));
          if rest = [] then running := false
        | Node.Evidence _ -> assert false))
  done;
  Builder.build b ~root:!result

let id_of t i = String.sub t.text t.id_at.(i) t.id_len.(i)
let statement_of t i = String.sub t.text t.st_at.(i) t.st_len.(i)
let is_tree t = not t.shared

let to_node t =
  if not (is_tree t) then
    invalid_arg "Graph.to_node: graph is a DAG (shared support has no tree \
                 rendering)";
  (* Recursion depth is the tree height — fine for authored cases; the
     graphs deep enough to threaten the stack are generated DAG benches
     that never come back through here. *)
  let rec build i =
    if Bytes.get t.kinds i = tag_evidence then
      Node.evidence ~id:(id_of t i) ~statement:(statement_of t i)
        ~confidence:(Columns.get t.base i)
    else begin
      let kids = ref [] in
      for e = t.child_off.(i + 1) - 1 downto t.child_off.(i) do
        kids := build t.child.(e) :: !kids
      done;
      let combinator =
        if Bytes.get t.kinds i = tag_all then Node.All else Node.Any
      in
      Node.goal ~id:(id_of t i) ~statement:(statement_of t i) ~combinator
        ~assumptions:t.assumption_lists.(i) !kids
    end
  in
  build t.root

(* --- propagation kernels ---------------------------------------------------- *)

let check_dep = function
  | Correlated rho ->
    if not (rho >= 0.0 && rho <= 1.0) then
      invalid_arg "Graph.propagate: rho out of [0,1]"
  | Independent | Frechet_lower | Frechet_upper -> ()

let dependence_of_string = function
  | "independent" -> Some Independent
  | "frechet-lower" -> Some Frechet_lower
  | "frechet-upper" -> Some Frechet_upper
  | s -> (
    match Numerics.Decimal.of_string_opt s with
    | Some rho when rho >= 0.0 && rho <= 1.0 -> Some (Correlated rho)
    | _ -> None)

(* The value of the child on edge [e].  The column type is spelled out so
   the Bigarray read compiles to an inline load, not a generic call. *)
let[@inline] child_value t (vdata : Columns.ba) e =
  Bigarray.Array1.unsafe_get vdata (Array.unsafe_get t.child e)

(* [at col i] — an unchecked read of a node column, as an inline load
   even where [Columns.unsafe_get] is not inlined across modules, so the
   kernels box no float. *)
let[@inline] at col i = Bigarray.Array1.unsafe_get (Columns.unsafe_data col) i

(* Combined (pre-assumption) value of goal [i] given its children's values
   in [vdata], leaving out the child at position [skip] (0-based; -1
   leaves none out).  This is the one copy of the eight transfer
   functions: [compute] (concrete propagation), [propagate_bounds]
   (interval sweep) and the vacuous-leg probe all call it, so running
   the same arithmetic over the lo and hi columns is what makes point
   intervals collapse to the propagated bits exactly, and a leg that
   cannot affect the fold (a factor of exactly 1.0 under a product, a
   dominated value under min/max) leaves the probe bitwise equal to the
   stored value.  The folds run left to right from the usual inits; the
   inlined min/max mirror Stdlib.min/max: fold min keeps acc when
   acc <= c, fold max keeps acc when acc >= c.  It is inlined into each
   caller, so its result is never boxed. *)
let[@inline] combine_skip t dep vdata i skip =
  let off = Array.unsafe_get t.child_off i in
  let lim = Array.unsafe_get t.child_off (i + 1) in
  (* An edge index; off - 1 when nothing is skipped, which no e reaches. *)
  let skip = off + skip in
  if Bytes.unsafe_get t.kinds i = tag_all then
    match dep with
    | Independent ->
      let acc = ref 1.0 in
      for e = off to lim - 1 do
        if e <> skip then acc := !acc *. child_value t vdata e
      done;
      !acc
    | Frechet_lower ->
      let s = ref 0.0 in
      for e = off to lim - 1 do
        if e <> skip then s := !s +. child_value t vdata e
      done;
      let count = if skip >= off then lim - off - 1 else lim - off in
      let v = !s -. (float_of_int count -. 1.0) in
      if 0.0 >= v then 0.0 else v
    | Frechet_upper ->
      let m = ref 1.0 in
      for e = off to lim - 1 do
        if e <> skip then begin
          let c = child_value t vdata e in
          if not (!m <= c) then m := c
        end
      done;
      !m
    | Correlated rho ->
      let ind = ref 1.0 and como = ref 1.0 in
      for e = off to lim - 1 do
        if e <> skip then begin
          let c = child_value t vdata e in
          ind := !ind *. c;
          if not (!como <= c) then como := c
        end
      done;
      let ov = at t.overlap i in
      let rho = if ov > rho then ov else rho in
      ((1.0 -. rho) *. !ind) +. (rho *. !como)
  else
    match dep with
    | Independent ->
      let acc = ref 1.0 in
      for e = off to lim - 1 do
        if e <> skip then acc := !acc *. (1.0 -. child_value t vdata e)
      done;
      1.0 -. !acc
    | Frechet_lower ->
      let m = ref 0.0 in
      for e = off to lim - 1 do
        if e <> skip then begin
          let c = child_value t vdata e in
          if not (!m >= c) then m := c
        end
      done;
      !m
    | Frechet_upper ->
      let s = ref 0.0 in
      for e = off to lim - 1 do
        if e <> skip then s := !s +. child_value t vdata e
      done;
      if 1.0 <= !s then 1.0 else !s
    | Correlated rho ->
      let ind = ref 1.0 and como = ref 0.0 in
      for e = off to lim - 1 do
        if e <> skip then begin
          let c = child_value t vdata e in
          ind := !ind *. (1.0 -. c);
          if not (!como >= c) then como := c
        end
      done;
      (* Shared-evidence discount: legs citing the same evidence are at
         least that correlated, so floor rho at the overlap. *)
      let ov = at t.overlap i in
      let rho = if ov > rho then ov else rho in
      ((1.0 -. rho) *. (1.0 -. !ind)) +. (rho *. !como)

(* Value of node [i] given its children's values in [vdata]: evidence
   reads its base confidence, a goal combines its children and applies
   the assumption-validity product. *)
let[@inline] compute t dep vdata i =
  if Bytes.unsafe_get t.kinds i = tag_evidence then at t.base i
  else combine_skip t dep vdata i (-1) *. at t.avalid i

let propagate dep t =
  check_dep dep;
  let vdata = Columns.unsafe_data t.value in
  for i = 0 to t.n - 1 do
    Bigarray.Array1.unsafe_set vdata i (compute t dep vdata i)
  done;
  clear_dirty t;
  t.last_dep <- Some dep;
  Bigarray.Array1.unsafe_get vdata t.root

(* Below this many nodes a level is evaluated inline: dispatch overhead
   would swamp the work. *)
let par_level_threshold = 4096

let propagate_par ~pool ?chunks dep t =
  check_dep dep;
  let chunks = Parallel.resolve_chunks ~pool ?chunks "Graph.propagate_par" in
  (* Built here, in the calling domain, before any chunk runs. *)
  levels_built t;
  let vdata = Columns.unsafe_data t.value in
  let run_slice s e =
    for k = s to e - 1 do
      let i = Array.unsafe_get t.level_nodes k in
      Bigarray.Array1.unsafe_set vdata i (compute t dep vdata i)
    done
  in
  for l = 0 to t.height - 1 do
    let off = t.level_off.(l) and lim = t.level_off.(l + 1) in
    let count = lim - off in
    if count < par_level_threshold || chunks = 1 then run_slice off lim
    else begin
      let b = Parallel.slice_bounds ~n:count ~chunks in
      ignore
        (Parallel.map_chunks ~pool ~chunks (fun c ->
             run_slice (off + b.(c)) (off + b.(c + 1))))
    end
  done;
  clear_dirty t;
  t.last_dep <- Some dep;
  Bigarray.Array1.unsafe_get vdata t.root

(* --- incremental edits ------------------------------------------------------- *)

let set_evidence t i confidence =
  if i < 0 || i >= t.n then invalid_arg "Graph.set_evidence: index out of range";
  if Bytes.get t.kinds i <> tag_evidence then
    invalid_arg "Graph.set_evidence: not an evidence node";
  if not (confidence > 0.0 && confidence <= 1.0) then
    invalid_arg "Graph.set_evidence: confidence must be in (0,1]";
  edits_built t;
  Columns.set t.base i confidence;
  mark_dirty t i;
  if t.hash_valid then mark_hash_dirty t i

let set_assumption t ~id ~p_valid =
  if not (p_valid > 0.0 && p_valid <= 1.0) then
    invalid_arg "Graph.set_assumption: p_valid must be in (0,1]";
  match Ids.find_opt t.index t.text id with
  | None -> raise Not_found
  | Some slot when slot >= 0 -> raise Not_found
  | Some slot ->
    let gi = lnot slot in
    edits_built t;
    t.assumption_lists.(gi) <-
      List.map
        (fun (a : Node.assumption) ->
          if a.aid = id then { a with p_valid } else a)
        t.assumption_lists.(gi);
    Columns.set t.avalid gi (validity_product t.assumption_lists.(gi));
    mark_dirty t gi;
    if t.hash_valid then mark_hash_dirty t gi

let same_dep a b =
  match (a, b) with
  | Independent, Independent
  | Frechet_lower, Frechet_lower
  | Frechet_upper, Frechet_upper -> true
  | Correlated x, Correlated y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> false

let refresh dep t =
  match t.last_dep with
  | Some d when same_dep d dep ->
    let vdata = Columns.unsafe_data t.value in
    while t.heap.Iheap.len > 0 do
      let i = Iheap.pop t.heap in
      Bytes.set t.dirty i '\000';
      let v = compute t dep vdata i in
      if
        not
          (Int64.equal (Int64.bits_of_float v)
             (Int64.bits_of_float (Bigarray.Array1.unsafe_get vdata i)))
      then begin
        Bigarray.Array1.unsafe_set vdata i v;
        (* The value actually changed: parents are now stale.  When an
           edit's effect dies out (e.g. under a min) this branch is not
           taken and the cone is cut off early. *)
        for e = t.parent_off.(i) to t.parent_off.(i + 1) - 1 do
          mark_dirty t t.parent.(e)
        done
      end
    done;
    Bigarray.Array1.unsafe_get vdata t.root
  | _ -> propagate dep t

let invalidate t = t.last_dep <- None

(* --- content-addressed structural hashing ------------------------------------ *)

(* Splitmix64 finalizer: full-avalanche 64-bit bijection. *)
let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Order-sensitive combine: children hashed in emission order stay
   distinguishable from any permutation. *)
let hash_mix h x = mix64 (Int64.add (Int64.mul h 0x9E3779B97F4A7C15L) x)

let seed_evidence = 0x2545F4914F6CDD1DL
let seed_all = 0x6A09E667F3BCC909L
let seed_any = 0xBB67AE8584CAA73BL

(* Leaf-up hash of node [i], children's hashes already in [hdata].
   Covers exactly the evaluation-relevant state: an evidence node is its
   confidence bits; a goal is its combinator tag, assumption-validity
   product, structural overlap fraction, and child hashes in order.
   Statements and ids are deliberately excluded — two sub-cases with the
   same shape and numbers evaluate identically, which is what a
   value-memo key must capture. *)
let node_hash t hdata i =
  let tag = Bytes.unsafe_get t.kinds i in
  if tag = tag_evidence then
    hash_mix seed_evidence (Int64.bits_of_float (Columns.unsafe_get t.base i))
  else begin
    let seed = if tag = tag_all then seed_all else seed_any in
    let h = ref (hash_mix seed (Int64.bits_of_float (Columns.unsafe_get t.avalid i))) in
    h := hash_mix !h (Int64.bits_of_float (Columns.unsafe_get t.overlap i));
    for e = Array.unsafe_get t.child_off i
        to Array.unsafe_get t.child_off (i + 1) - 1 do
      h :=
        hash_mix !h
          (Bigarray.Array1.unsafe_get hdata (Array.unsafe_get t.child e))
    done;
    !h
  end

let refresh_hashes t =
  let hdata = t.shash in
  if not t.hash_valid then begin
    (* First query: the column, and one full leaf-up pass (index order
       is topological).  Any staged hash dirt predates this pass, so drop
       it. *)
    if Bigarray.Array1.dim hdata = 0 then begin
      t.shash <- Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout t.n;
      t.hdirty <- Bytes.make t.n '\000'
    end;
    let hdata = t.shash in
    for i = 0 to t.n - 1 do
      Bigarray.Array1.unsafe_set hdata i (node_hash t hdata i)
    done;
    for k = 0 to t.hheap.Iheap.len - 1 do
      Bytes.set t.hdirty t.hheap.Iheap.a.(k) '\000'
    done;
    t.hheap.Iheap.len <- 0;
    t.hash_valid <- true
  end
  else
    (* Same early-cutoff discipline as [refresh]: re-hash the dirty
       frontier children-first, propagate to parents only when the bits
       actually changed (an edit reverted to the previous confidence
       stops at the leaf). *)
    while t.hheap.Iheap.len > 0 do
      let i = Iheap.pop t.hheap in
      Bytes.set t.hdirty i '\000';
      let h = node_hash t hdata i in
      if not (Int64.equal h (Bigarray.Array1.unsafe_get hdata i)) then begin
        Bigarray.Array1.unsafe_set hdata i h;
        for e = t.parent_off.(i) to t.parent_off.(i + 1) - 1 do
          mark_hash_dirty t t.parent.(e)
        done
      end
    done

let structural_hash t i =
  if i < 0 || i >= t.n then
    invalid_arg "Graph.structural_hash: index out of range";
  refresh_hashes t;
  Bigarray.Array1.get t.shash i

let root_hash t =
  refresh_hashes t;
  Bigarray.Array1.get t.shash t.root

let dependence_hash = function
  | Independent -> mix64 1L
  | Frechet_lower -> mix64 2L
  | Frechet_upper -> mix64 3L
  | Correlated rho -> hash_mix (mix64 4L) (Int64.bits_of_float rho)

(* --- static-analysis kernels --------------------------------------------------- *)

(* Every combinator above is monotone nondecreasing in each child value
   for a fixed dependence model (products of values in [0,1], clamped
   sums, min, max, and nonnegative blends of those), so an interval
   [lo, hi] per node propagates by running the same arithmetic over the
   lo column and the hi column separately.  With point leaf intervals
   (lo = hi = base) both sweeps replay [compute]'s float operations
   exactly, so the interval collapses to the propagated value bit for
   bit — the soundness anchor the property tests pin. *)
let propagate_bounds ?(leaf_bounds = fun _ -> (0.0, 1.0))
    ?(with_assumptions = true) dep t =
  check_dep dep;
  let lo = Columns.make t.n 0.0 in
  let hi = Columns.make t.n 0.0 in
  let lod = Columns.unsafe_data lo in
  let hid = Columns.unsafe_data hi in
  for i = 0 to t.n - 1 do
    if Bytes.unsafe_get t.kinds i = tag_evidence then begin
      let l, h = leaf_bounds i in
      if not (l >= 0.0 && l <= h && h <= 1.0) then
        invalid_arg
          "Graph.propagate_bounds: leaf bounds must satisfy 0 <= lo <= hi <= 1";
      Bigarray.Array1.unsafe_set lod i l;
      Bigarray.Array1.unsafe_set hid i h
    end
    else begin
      let av = if with_assumptions then at t.avalid i else 1.0 in
      Bigarray.Array1.unsafe_set lod i (combine_skip t dep lod i (-1) *. av);
      Bigarray.Array1.unsafe_set hid i (combine_skip t dep hid i (-1) *. av)
    end
  done;
  (lo, hi)

(* The argument checks of [combine] and [leg_is_inert], which name
   themselves [fn] in the messages. *)
let check_goal fn dep t i values =
  check_dep dep;
  if i < 0 || i >= t.n then invalid_arg (fn ^ ": index out of range");
  if Bytes.get t.kinds i = tag_evidence then invalid_arg (fn ^ ": not a goal");
  if Columns.length values < t.n then
    invalid_arg (fn ^ ": value column shorter than the graph")

let check_leg fn t i k =
  if k < 0 || k >= t.child_off.(i + 1) - t.child_off.(i) then
    invalid_arg (fn ^ ": child position out of range")

let combine ?skip dep t i values =
  check_goal "Graph.combine" dep t i values;
  let skip =
    match skip with
    | None -> -1
    | Some k ->
      check_leg "Graph.combine" t i k;
      k
  in
  combine_skip t dep (Columns.unsafe_data values) i skip

let leg_is_inert dep t i k values =
  check_goal "Graph.leg_is_inert" dep t i values;
  check_leg "Graph.leg_is_inert" t i k;
  let vdata = Columns.unsafe_data values in
  Int64.equal
    (Int64.bits_of_float (combine_skip t dep vdata i k *. at t.avalid i))
    (Int64.bits_of_float (Bigarray.Array1.unsafe_get vdata i))

(* Single points of failure: evidence whose individual refutation defeats
   the root no matter what the rest of the case does.  Under the boolean
   abstraction (each evidence item either holds or fails, All conjoins,
   Any disjoins) the kill set of a node is the set of evidence items
   whose lone failure makes the node fail: {e} for evidence e, the union
   of the children's kill sets for an All goal, their intersection for an
   Any goal.  Children precede parents, so one ascending pass over sorted
   runs computes every set.  A goal's run lives in one int pool, behind
   its length; the goal merges its children's runs in two scratch arrays
   and appends the result.  A child's run is dead once its last parent
   has consumed it, and a full pool first compacts the live runs to its
   front, so peak memory is bounded by the live frontier rather than the
   whole graph, and the pass allocates per document, not per node.  On a
   tree the legs of an Any goal have disjoint kill sets and the
   intersection collapses — it is DAG sharing that makes a multi-leg
   argument fail on one item. *)

(* [union a la b b0 lb out] / [inter ...] — the sorted union or
   intersection of [a.(0..la)] and [b.(b0..b0+lb)] into [out]; the
   length written. *)
let union (a : int array) la (b : int array) b0 lb out =
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < la && !j < lb do
    let x = Array.unsafe_get a !i and y = Array.unsafe_get b (b0 + !j) in
    if x < y then begin out.(!k) <- x; incr i end
    else if y < x then begin out.(!k) <- y; incr j end
    else begin out.(!k) <- x; incr i; incr j end;
    incr k
  done;
  while !i < la do out.(!k) <- a.(!i); incr i; incr k done;
  while !j < lb do out.(!k) <- b.(b0 + !j); incr j; incr k done;
  !k

let inter (a : int array) la (b : int array) b0 lb out =
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < la && !j < lb do
    let x = Array.unsafe_get a !i and y = Array.unsafe_get b (b0 + !j) in
    if x < y then incr i
    else if y < x then incr j
    else begin out.(!k) <- x; incr i; incr j; incr k end
  done;
  !k

let grown a need = if Array.length a >= need then a else Array.make (max need (2 * Array.length a)) 0

let spof_evidence t =
  parents_built t;
  let pool = ref (Array.make 1024 0) and top = ref 0 in
  (* A goal's run sits at [start.(i)] in the pool: its length, then its
     members.  An evidence node's set is itself and takes no run.
     [order.(0 .. !runs)] lists the goals with a run, in pool order. *)
  let start = Array.make t.n 0 in
  let goals = ref 0 in
  for i = 0 to t.n - 1 do
    if Bytes.unsafe_get t.kinds i <> tag_evidence then incr goals
  done;
  let order = Array.make !goals 0 and runs = ref 0 in
  let remaining = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    remaining.(i) <- t.parent_off.(i + 1) - t.parent_off.(i)
  done;
  (* Room for [need] more ints at [!top]: compact the live runs in
     order, then double the pool if it is still more than half full. *)
  let reserve need =
    if !top + need > Array.length !pool then begin
      let p = !pool in
      let w = ref 0 and kept = ref 0 in
      for r = 0 to !runs - 1 do
        let j = order.(r) in
        if remaining.(j) > 0 || j = t.root then begin
          let len = p.(start.(j)) + 1 in
          Array.blit p start.(j) p !w len;
          start.(j) <- !w;
          w := !w + len;
          order.(!kept) <- j;
          incr kept
        end
      done;
      runs := !kept;
      top := !w;
      if 2 * (!top + need) > Array.length p then begin
        let q = Array.make (max (2 * Array.length p) (2 * (!top + need))) 0 in
        Array.blit p 0 q 0 !top;
        pool := q
      end
    end
  in
  let acc = ref (Array.make 64 0) and next = ref (Array.make 64 0) in
  let one = [| 0 |] in
  for i = 0 to t.n - 1 do
    let tag = Bytes.unsafe_get t.kinds i in
    if tag <> tag_evidence then begin
      let off = t.child_off.(i) and lim = t.child_off.(i + 1) in
      let p = !pool in
      let c = t.child.(off) in
      let la = ref 1 in
      if Bytes.unsafe_get t.kinds c = tag_evidence then !acc.(0) <- c
      else begin
        la := p.(start.(c));
        acc := grown !acc !la;
        Array.blit p (start.(c) + 1) !acc 0 !la
      end;
      for e = off + 1 to lim - 1 do
        let c = t.child.(e) in
        let leaf = Bytes.unsafe_get t.kinds c = tag_evidence in
        one.(0) <- c;
        let b = if leaf then one else p in
        let b0 = if leaf then 0 else start.(c) + 1 in
        let lb = if leaf then 1 else p.(start.(c)) in
        if tag = tag_all then begin
          next := grown !next (!la + lb);
          la := union !acc !la b b0 lb !next
        end
        else begin
          next := grown !next (min !la lb);
          la := inter !acc !la b b0 lb !next
        end;
        let a = !acc in
        acc := !next;
        next := a
      done;
      for e = off to lim - 1 do
        let c = t.child.(e) in
        remaining.(c) <- remaining.(c) - 1
      done;
      reserve (!la + 1);
      start.(i) <- !top;
      !pool.(!top) <- !la;
      Array.blit !acc 0 !pool (!top + 1) !la;
      top := !top + !la + 1;
      order.(!runs) <- i;
      incr runs
    end
  done;
  if Bytes.unsafe_get t.kinds t.root = tag_evidence then [| t.root |]
  else Array.sub !pool (start.(t.root) + 1) !pool.(start.(t.root))

(* --- inspection --------------------------------------------------------------- *)

let size t = t.n
let edge_count t = t.edges
let root t = t.root
let levels t = t.height

let kind_of t i =
  match Bytes.get t.kinds i with
  | c when c = tag_evidence -> Evidence
  | c when c = tag_all -> All_goal
  | _ -> Any_goal

let find t id =
  match Ids.find_opt t.index t.text id with
  | Some i when i >= 0 -> Some i
  | _ -> None
let value t i = Columns.get t.value i
let base_confidence t i = Columns.get t.base i

let children t i =
  Array.sub t.child t.child_off.(i) (t.child_off.(i + 1) - t.child_off.(i))

let child_count t i = t.child_off.(i + 1) - t.child_off.(i)

let parents t i =
  parents_built t;
  Array.sub t.parent t.parent_off.(i) (t.parent_off.(i + 1) - t.parent_off.(i))

let parent_count t i =
  parents_built t;
  t.parent_off.(i + 1) - t.parent_off.(i)

let values t = t.value
let assumption_validity t i = Columns.get t.avalid i

let evidence_indices t =
  let count = ref 0 in
  for i = 0 to t.n - 1 do
    if Bytes.get t.kinds i = tag_evidence then incr count
  done;
  let out = Array.make !count 0 in
  let k = ref 0 in
  for i = 0 to t.n - 1 do
    if Bytes.get t.kinds i = tag_evidence then begin
      out.(!k) <- i;
      incr k
    end
  done;
  out

let overlap_fraction t i = Columns.get t.overlap i

let max_overlap t =
  let m = ref 0.0 in
  for i = 0 to t.n - 1 do
    let ov = Columns.get t.overlap i in
    if ov > !m then m := ov
  done;
  !m

(* --- sensitivity rankings ---------------------------------------------------- *)

let central_difference perturb current =
  let h = 1e-4 in
  let lo = max 1e-6 (current -. h) and hi = min 1.0 (current +. h) in
  (perturb hi -. perturb lo) /. (hi -. lo)

(* Each probe edits one input, re-propagates only its ancestor cone, and
   puts the input back; [refresh] returns exactly the bits a full
   propagation would, so the ranking costs O(edges touched), not
   O(n * inputs). *)
let leaf_sensitivities dep t =
  ignore (propagate dep t);
  evidence_indices t |> Array.to_list
  |> List.map (fun i ->
         let c = Columns.get t.base i in
         let perturb x =
           set_evidence t i x;
           refresh dep t
         in
         let s = central_difference perturb c in
         set_evidence t i c;
         ignore (refresh dep t);
         (id_of t i, s))

let assumption_sensitivities dep t =
  (* Preorder from the root, each goal's assumptions ahead of its
     children's: the order a walk of the authored tree lists them in.
     A node shared by several goals is visited once. *)
  let seen = Bytes.make t.n '\000' in
  let rec walk found = function
    | [] -> List.rev found
    | i :: rest when Bytes.get seen i <> '\000' -> walk found rest
    | i :: rest ->
      Bytes.set seen i '\001';
      let rest = ref rest in
      for e = t.child_off.(i + 1) - 1 downto t.child_off.(i) do
        rest := t.child.(e) :: !rest
      done;
      walk (List.rev_append t.assumption_lists.(i) found) !rest
  in
  let assumptions = walk [] [ t.root ] in
  ignore (propagate dep t);
  assumptions
  |> List.map (fun (a : Node.assumption) ->
         let perturb p =
           set_assumption t ~id:a.aid ~p_valid:p;
           refresh dep t
         in
         let s = central_difference perturb a.p_valid in
         set_assumption t ~id:a.aid ~p_valid:a.p_valid;
         ignore (refresh dep t);
         (a.aid, s))
