(* The load generator for the serve workloads: one single-threaded
   process holding a few Unix-socket connections to a [confcase serve]
   daemon.  Requests follow an open-loop schedule (Poisson arrivals at a
   fixed rate), so a stalled daemon receives the same load and its queue
   grows; each request is timed from the instant the schedule set for it,
   which charges a stall to every request it delays.  How late the
   generator itself sent is reported beside the latencies. *)

(* --- daemon ------------------------------------------------------------------- *)

type daemon = { pid : int; sock : string }

let start_daemon ~confcase ~sock ~domains =
  if Sys.file_exists sock then Sys.remove sock;
  let pid =
    Proc.spawn ~stdout:None confcase
      [ "serve"; "--unix"; sock; "--domains"; string_of_int domains ]
  in
  let d = { pid; sock } in
  let t0 = Clock.now_ns () in
  let rec wait () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        Hashtbl.remove Proc.live pid;
        failwith "confcase serve exited during start-up");
      if Clock.seconds_since t0 > 30.0 then failwith "confcase serve did not listen";
      Unix.sleepf 0.002;
      wait ()
  in
  wait ();
  d

let peak_mib d = float_of_int (Proc.peak_kib d.pid) /. 1024.0

(* --- connections ---------------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  out : Buffer.t;  (* bytes queued, not yet written *)
  residual : Buffer.t;  (* bytes after the last complete line read *)
  chunk : Bytes.t;
}

let connect d =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX d.sock);
  Unix.set_nonblock fd;
  { fd; out = Buffer.create 65536; residual = Buffer.create 4096; chunk = Bytes.create 65536 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let pending c = Buffer.length c.out > 0

(* Writes as much queued output as the socket takes now. *)
let flush c =
  if pending c then begin
    let s = Buffer.contents c.out in
    let n =
      try Unix.write_substring c.fd s 0 (String.length s)
      with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> 0
    in
    Buffer.clear c.out;
    if n < String.length s then Buffer.add_substring c.out s n (String.length s - n)
  end

(* Reads what is available now; [on_line] sees each complete line.
   Returns false at end of stream. *)
let drain c on_line =
  let rec loop () =
    match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
    | 0 -> false
    | n ->
      let start = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.get c.chunk i = '\n' then begin
          let line =
            if Buffer.length c.residual = 0 then Bytes.sub_string c.chunk !start (i - !start)
            else begin
              Buffer.add_subbytes c.residual c.chunk !start (i - !start);
              let l = Buffer.contents c.residual in
              Buffer.clear c.residual;
              l
            end
          in
          on_line line;
          start := i + 1
        end
      done;
      Buffer.add_subbytes c.residual c.chunk !start (n - !start);
      loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

let select r w timeout =
  try Unix.select r w [] timeout
  with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])

(* [call_many c lines] — send every line, return the responses in order
   (the daemon answers one connection in arrival order).  [c] must have
   no earlier request unanswered; {!run_step} leaves none. *)
let call_many ?(timeout_s = 60.0) c lines =
  List.iter (fun l -> Buffer.add_string c.out l; Buffer.add_char c.out '\n') lines;
  let want = List.length lines in
  let got = ref [] and count = ref 0 in
  let t0 = Clock.now_ns () in
  while !count < want do
    if Clock.seconds_since t0 > timeout_s then failwith "confcase serve stopped answering";
    flush c;
    let w = if pending c then [ c.fd ] else [] in
    ignore (select [ c.fd ] w 0.05);
    if not (drain c (fun l -> got := l :: !got; incr count)) then
      failwith "confcase serve closed the connection"
  done;
  List.rev !got

let call ?timeout_s c line = List.hd (call_many ?timeout_s c [ line ])

let stop_daemon d c =
  (try ignore (call ~timeout_s:10.0 c {|{"op":"shutdown"}|}) with Failure _ -> ());
  close c;
  let t0 = Clock.now_ns () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Clock.seconds_since t0 < 10.0 ->
      Unix.sleepf 0.005;
      wait ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Proc.reap d.pid)
    | _ -> Hashtbl.remove Proc.live d.pid
  in
  wait ();
  if Sys.file_exists d.sock then Sys.remove d.sock

(* --- response fields --------------------------------------------------------------- *)

(* The daemon prints [{"id":N,"ok":B,...}] with the echoed id first; a
   shed response carries no id. *)
let response_id line =
  let p = {|{"id":|} in
  let lp = String.length p in
  if not (String.starts_with ~prefix:p line) then None
  else begin
    let i = ref lp and v = ref 0 in
    while !i < String.length line && line.[!i] >= '0' && line.[!i] <= '9' do
      v := (10 * !v) + Char.code line.[!i] - 48;
      incr i
    done;
    if !i = lp then None else Some !v
  end

(* Allocation-free substring search: the generator parses every response
   on the hot path. *)
let index_of s sub =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i + m > n then None else if matches i 0 then Some i else go (i + 1) in
  go 0

let response_ok line = index_of line {|"ok":true|} <> None

(* The ["bits"] hex string of a response, or "". *)
let response_bits line =
  match index_of line {|"bits":"|} with
  | Some i when i + 8 + 18 <= String.length line -> String.sub line (i + 8) 18
  | _ -> ""

(* A numeric field of a response, through the daemon's own JSON parser. *)
let number line key =
  match Serve.Protocol.member key (Serve.Protocol.parse line) with
  | Some v -> Serve.Protocol.get_num v
  | None -> None

(* --- open-loop steps ----------------------------------------------------------------- *)

type step = {
  rate : float;
  latency_us : float array;  (** From the scheduled send; [infinity] = failed. *)
  lag_us : float array;  (** How late each request was sent. *)
  shed : int;
}

(* [poisson rng ~rate ~duration] — arrival offsets in ns. *)
let poisson rng ~rate ~duration =
  let acc = ref [] and t = ref (Numerics.Rng.exponential rng ~rate) in
  while !t < duration do
    acc := Int64.of_float (!t *. 1e9) :: !acc;
    t := !t +. Numerics.Rng.exponential rng ~rate
  done;
  Array.of_list (List.rev !acc)

(* [run_step conns ~base ~rate ~offsets ~requests ~on_response] — send
   request [k] (a line carrying id [base + k], and the index of its
   connection) at offset [k], collect the responses, and time each from
   its scheduled instant.  [on_response k line] returns whether the
   response is correct.  A request without a correct answer within
   [drain_s] of the last scheduled send keeps latency [infinity].  The
   step still waits for every answer, late ones included, and passes
   each to [on_response]: the connections then carry no stale replies
   into the next {!call_many}, and every write the daemon acknowledged
   is seen. *)
let run_step ?(drain_s = 2.0) conns ~base ~rate ~offsets ~requests ~on_response =
  let n = Array.length offsets in
  let t0 = Int64.add (Clock.now_ns ()) 1_000_000L in
  let due k = Int64.add t0 offsets.(k) in
  let latency_us = Array.make n infinity and lag_us = Array.make n 0.0 in
  let next = ref 0 and answered = ref 0 and shed = ref 0 in
  let end_ns =
    Int64.add (if n = 0 then t0 else due (n - 1)) (Int64.of_float (drain_s *. 1e9))
  in
  let give_up_ns = Int64.add end_ns 60_000_000_000L in
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  let handle now line =
    match response_id line with
    | Some id when id >= base && id < base + n ->
      let k = id - base in
      incr answered;
      if on_response k line && now < end_ns then
        latency_us.(k) <- Clock.ns_between (due k) now /. 1e3
    | Some _ -> ()
    | None ->
      incr answered;
      incr shed
  in
  while !answered < n do
    if Clock.now_ns () > give_up_ns then failwith "confcase serve stopped answering";
    let now = Clock.now_ns () in
    while !next < n && due !next <= now do
      let k = !next in
      let line, ci = requests k in
      let c = conns.(ci) in
      Buffer.add_string c.out line;
      Buffer.add_char c.out '\n';
      lag_us.(k) <- Clock.ns_between (due k) now /. 1e3;
      incr next
    done;
    Array.iter flush conns;
    let timeout =
      if !next < n then Float.max 0.0 (Clock.ns_between (Clock.now_ns ()) (due !next) *. 1e-9)
      else 0.01
    in
    let w = List.filter_map (fun c -> if pending c then Some c.fd else None) (Array.to_list conns) in
    let readable, _, _ = select fds w timeout in
    if readable <> [] then begin
      let now = Clock.now_ns () in
      Array.iter
        (fun c ->
          if List.mem c.fd readable then
            if not (drain c (handle now)) then failwith "confcase serve closed the connection")
        conns
    end
  done;
  { rate; latency_us; lag_us; shed = !shed }
