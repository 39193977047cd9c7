(* The seeded case file every case-driven workload reads.

   The shape is the generator's multi-legged tree (Casekit.Generate):
   a root [any] goal over [legs] legs, each a complete [fanout]-ary goal
   tree of [depth] levels over evidence leaves, interior goals [any] with
   probability 0.2.  Unlike the generator, every node carries an id
   (G<i>, E<i>, A<i> in document order) and a statement unique to it,
   and every 97th goal rests on an assumption: an authored case, not an
   anonymous graph.  Unique statements matter: the shared-evidence rule
   (C009) matches evidence by statement text, and repeated statements
   would turn the audit into a stream of warnings. *)

module G = Casekit.Graph
module Rng = Numerics.Rng

let legs = 9
let fanout = 10
let leaf_band = (0.999998, 0.9999999)
let assumption_band = (0.9995, 0.99999)
let assumption_every = 97

(* The dependence model and target every workload evaluates under. *)
let rho = 0.3
let dependence = G.Correlated rho
let target = 0.9

type t = {
  path : string;
  text : string;
  graph : G.t;  (** Built directly by the writer, never parsed. *)
  goals : string array;  (** Goal ids, document order (root first). *)
  leaves : string array;  (** Evidence ids, document order. *)
}

let nodes t = G.size t.graph

let generate ~seed ~depth =
  let rng = Rng.create seed in
  let n = Casekit.Generate.node_count ~legs ~fanout ~depth in
  let b = G.Builder.create ~capacity:n () in
  let buf = Buffer.create (80 * n) in
  let goals = ref [] and leaves = ref [] in
  let n_goals = ref 0 and n_leaves = ref 0 and n_assumptions = ref 0 in
  let pad indent = Buffer.add_string buf (String.make (2 * indent) ' ') in
  let rec node indent level =
    if level = 0 then begin
      let id = Printf.sprintf "E%d" !n_leaves in
      incr n_leaves;
      leaves := id :: !leaves;
      let statement = Printf.sprintf "Evidence %s supports its parent claim" id in
      let lo, hi = leaf_band in
      let confidence = Rng.uniform rng lo hi in
      pad indent;
      Printf.bprintf buf "evidence %s \"%s\" %.17g\n" id statement confidence;
      G.Builder.evidence b ~id ~statement ~confidence ()
    end
    else goal indent level fanout
  and goal indent level arity =
    let gi = !n_goals in
    incr n_goals;
    let id = Printf.sprintf "G%d" gi in
    goals := id :: !goals;
    let statement = Printf.sprintf "Claim %s holds" id in
    let combinator =
      if indent = 0 then Casekit.Node.Any
      else if level < depth && Rng.bernoulli rng 0.2 then Casekit.Node.Any
      else Casekit.Node.All
    in
    pad indent;
    Printf.bprintf buf "goal %s \"%s\" %s\n" id statement
      (match combinator with Casekit.Node.Any -> "any" | Casekit.Node.All -> "all");
    let assumptions =
      if gi mod assumption_every <> assumption_every - 1 then []
      else begin
        let aid = Printf.sprintf "A%d" !n_assumptions in
        incr n_assumptions;
        let a_statement = Printf.sprintf "Assumption %s about %s is valid" aid id in
        let lo, hi = assumption_band in
        let p_valid = Rng.uniform rng lo hi in
        pad (indent + 1);
        Printf.bprintf buf "assume %s \"%s\" %.17g\n" aid a_statement p_valid;
        [ Casekit.Node.assumption ~id:aid ~statement:a_statement ~p_valid ]
      end
    in
    let kids = Array.make arity 0 in
    (* A plain loop, not Array.init: children are drawn left to right. *)
    for k = 0 to arity - 1 do
      kids.(k) <- node (indent + 1) (level - 1)
    done;
    G.Builder.goal b ~id ~statement ~assumptions ~combinator kids
  in
  let root = goal 0 (depth + 1) legs in
  let graph = G.Builder.build b ~root in
  ( Buffer.contents buf,
    graph,
    Array.of_list (List.rev !goals),
    Array.of_list (List.rev !leaves) )

(* [write ~seed ~depth path] — generate the case and write it to [path].
   [depth] 4 gives 100,000 nodes, [depth] 2 gives 1,000. *)
let write ~seed ~depth path =
  let text, graph, goals, leaves = generate ~seed ~depth in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
  { path; text; graph; goals; leaves }

(* The tree = graph contract on the fixture: parsing the written file and
   bridging it to a graph propagates to the same root bits as the graph
   the writer built. *)
let tree_matches_graph t =
  let parsed = G.of_node (Casekit.Case_format.parse t.text) in
  Int64.equal
    (Int64.bits_of_float (G.propagate dependence parsed))
    (Int64.bits_of_float (G.propagate dependence t.graph))
