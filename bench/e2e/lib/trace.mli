(** In-memory spans around the calls a traced replay makes into each
    layer's public functions.

    A span records its name, start and end on the {!Clock}, the span that
    was open when it started (its parent), and the trace it belongs to:
    the spans of one replayed request or CLI invocation share a trace id.
    Spans are kept in memory and written out once, when the run ends. *)

type span = {
  trace : int;
  span : int;  (** Unique per recorder, from 1. *)
  parent : int;  (** 0 for a root span. *)
  name : string;
  start_ns : int64;
  end_ns : int64;
}

type t

(** [create ()] — a recording tracer. *)
val create : unit -> t

(** [off ()] — a tracer whose {!with_span} only runs the function: the
    untraced twin of a replay, used to measure tracing overhead. *)
val off : unit -> t

(** [next_trace t] — start a new trace id for the spans that follow. *)
val next_trace : t -> unit

(** [with_span t name f] — [f ()] inside a span named [name], whose
    parent is the innermost open span.  The span is recorded even when
    [f] raises. *)
val with_span : t -> string -> (unit -> 'a) -> 'a

(** [spans t] — the recorded spans, in the order they ended. *)
val spans : t -> span list

(** [self_ns spans] — each span with its self time: its duration minus
    the part its direct children cover. *)
val self_ns : span list -> (span * float) list

(** [self_by_name spans] — self times grouped by span name, each group in
    recording order. *)
val self_by_name : span list -> (string * float array) list

(** [duration_ns s] — [end_ns - start_ns] as a float. *)
val duration_ns : span -> float

(** [write_ndjson path spans] — one JSON object per span per line. *)
val write_ndjson : string -> span list -> unit
