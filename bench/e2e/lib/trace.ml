type span = {
  trace : int;
  span : int;
  parent : int;
  name : string;
  start_ns : int64;
  end_ns : int64;
}

type t = {
  enabled : bool;
  mutable recorded : span list;  (* newest first *)
  mutable next_id : int;
  mutable open_spans : int list;
  mutable trace_id : int;
}

let make enabled =
  { enabled; recorded = []; next_id = 1; open_spans = []; trace_id = 1 }

let create () = make true
let off () = make false
let next_trace t = t.trace_id <- t.trace_id + 1

let with_span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.open_spans with p :: _ -> p | [] -> 0 in
    t.open_spans <- id :: t.open_spans;
    let trace = t.trace_id in
    let start_ns = Clock.now_ns () in
    let close () =
      let end_ns = Clock.now_ns () in
      t.open_spans <- List.tl t.open_spans;
      t.recorded <- { trace; span = id; parent; name; start_ns; end_ns } :: t.recorded
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let spans t = List.rev t.recorded
let duration_ns s = Clock.ns_between s.start_ns s.end_ns

let self_ns spans =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let c = Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent) in
        Hashtbl.replace covered s.parent (c +. duration_ns s))
    spans;
  List.map
    (fun s ->
      let c = Option.value ~default:0.0 (Hashtbl.find_opt covered s.span) in
      (s, duration_ns s -. c))
    spans

let self_by_name spans =
  let groups = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt groups s.name with
      | Some l -> Hashtbl.replace groups s.name (self :: l)
      | None ->
        order := s.name :: !order;
        Hashtbl.add groups s.name [ self ])
    (self_ns spans);
  List.rev_map
    (fun name -> (name, Array.of_list (List.rev (Hashtbl.find groups name))))
    !order

let write_ndjson path spans =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"trace\":%d,\"span\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
            s.trace s.span s.parent s.name s.start_ns s.end_ns)
        spans)
