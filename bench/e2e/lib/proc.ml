(* Child processes: one-shot CLI runs timed from spawn to reap with their
   peak resident set polled from /proc, and long-lived daemons.  Every
   child is registered until reaped, so an exit on any path kills and
   waits for whatever is still running. *)

let live : (int, unit) Hashtbl.t = Hashtbl.create 8

let rec waitpid_retry pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let reap pid =
  let status = waitpid_retry pid in
  Hashtbl.remove live pid;
  status

let kill_all () =
  Hashtbl.iter
    (fun pid () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (waitpid_retry pid) with Unix.Unix_error _ -> ())
    (Hashtbl.copy live);
  Hashtbl.reset live

let () = at_exit kill_all

(* VmHWM of a running process in KiB; 0 once it has exited. *)
let peak_kib pid =
  match In_channel.with_open_bin (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
    List.fold_left
      (fun acc line ->
        match String.index_opt line ':' with
        | Some i when String.sub line 0 i = "VmHWM" ->
          let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
          (match String.split_on_char ' ' v with
          | n :: _ -> Option.value ~default:acc (int_of_string_opt n)
          | [] -> acc)
        | _ -> acc)
      0
      (String.split_on_char '\n' text)

(* CPU seconds (user + system) of every child reaped so far. *)
let children_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* CPU seconds (user + system, all threads) of a running process: fields
   14 and 15 of /proc/<pid>/stat, in ticks of 1/100 s. *)
let cpu_s pid =
  match In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | text -> (
    (* The fields after the command name, which may hold spaces. *)
    let i = String.rindex text ')' + 2 in
    match String.split_on_char ' ' (String.sub text i (String.length text - i)) with
    | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: utime :: stime :: _ ->
      (float_of_string utime +. float_of_string stime) /. 100.0
    | _ -> 0.0)

(* The environment with [unset] removed and [set] added. *)
let environment ~set ~unset =
  let drop kv =
    List.exists
      (fun k ->
        let p = k ^ "=" in
        String.length kv >= String.length p && String.sub kv 0 (String.length p) = p)
      (unset @ List.map fst set)
  in
  Array.append
    (Array.of_list (List.filter (fun kv -> not (drop kv)) (Array.to_list (Unix.environment ()))))
    (Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) set))

let spawn ?(set = []) ?(unset = []) ~stdout exe args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let out = Option.value stdout ~default:devnull in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        Unix.create_process_env exe (Array.of_list (exe :: args))
          (environment ~set ~unset) devnull out devnull)
  in
  Hashtbl.replace live pid ();
  pid

type run = {
  status : Unix.process_status;
  wall_s : float;  (** Spawn to reap. *)
  stdout : string;
  peak_kib : int;  (** Highest VmHWM seen while the process ran. *)
  cpu_s : float;  (** User + system CPU, all threads, in 1/100 s ticks. *)
}

let poll_s = 0.005

(* Runs [exe args] to completion, draining its stdout; a run past
   [timeout_s] is killed and reported as signalled. *)
let run ?set ?unset ?(timeout_s = 120.0) exe args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let cpu0 = children_cpu_s () in
  let t0 = Clock.now_ns () in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close wr) (fun () ->
        spawn ?set ?unset ~stdout:(Some wr) exe args)
  in
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let peak = ref 0 and eof = ref false in
  while not !eof do
    match Unix.select [ rd ] [] [] poll_s with
    | [], _, _ ->
      peak := max !peak (peak_kib pid);
      if Clock.seconds_since t0 > timeout_s then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        eof := true
      end
    | _ -> (
      match Unix.read rd chunk 0 (Bytes.length chunk) with
      | 0 -> eof := true
      | n -> Buffer.add_subbytes buf chunk 0 n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  peak := max !peak (peak_kib pid);
  let status = reap pid in
  let wall_s = Clock.seconds_since t0 in
  Unix.close rd;
  { status; wall_s; stdout = Buffer.contents buf; peak_kib = !peak; cpu_s = children_cpu_s () -. cpu0 }

let exited_ok r = r.status = Unix.WEXITED 0
