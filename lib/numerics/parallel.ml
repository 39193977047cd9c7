type pool = {
  mutable workers : unit Domain.t array;
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  work_available : Condition.t;
  mutable closed : bool;
}

let default_num_domains () =
  match Sys.getenv_opt "CONFCASE_DOMAINS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let rec worker_loop pool =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.queue && not pool.closed do
    Condition.wait pool.work_available pool.mutex
  done;
  if Queue.is_empty pool.queue then (
    (* Only reachable when closed: drain fully before exiting. *)
    Mutex.unlock pool.mutex)
  else begin
    let job = Queue.pop pool.queue in
    Mutex.unlock pool.mutex;
    job ();
    worker_loop pool
  end

let create ?num_domains () =
  let requested =
    match num_domains with Some n -> n | None -> default_num_domains ()
  in
  if requested < 1 then invalid_arg "Parallel.create: num_domains < 1";
  let pool =
    {
      workers = [||];
      queue = Queue.create ();
      mutex = Mutex.create ();
      work_available = Condition.create ();
      closed = false;
    }
  in
  if requested > 1 then begin
    (* The caller participates in batches, so spawn one fewer.  Only
       resource exhaustion degrades the pool: [Domain.spawn] signals it by
       raising [Failure] (e.g. at the runtime's domain cap), and then the
       pool simply runs with the workers it got.  Anything else escaping
       here is a programming error and must propagate, not silently turn
       the pool sequential. *)
    let spawned = ref [] in
    (try
       for _ = 2 to requested do
         spawned := Domain.spawn (fun () -> worker_loop pool) :: !spawned
       done
     with Failure _ -> ());
    pool.workers <- Array.of_list !spawned
  end;
  pool

let num_domains pool = 1 + Array.length pool.workers

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.closed <- true;
  Condition.broadcast pool.work_available;
  Mutex.unlock pool.mutex;
  Array.iter Domain.join pool.workers;
  pool.workers <- [||]

let with_pool ?num_domains f =
  let pool = create ?num_domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* Process-wide shared pool.  Spawning a domain costs hundreds of
   microseconds plus a stop-the-world synchronisation of every running
   domain, so creating a pool per experiment call (as the repro layer once
   did) dominates short Monte-Carlo runs.  The shared pool is created on
   first use and shut down by [at_exit]. *)
let global = ref None

let global_pool () =
  match !global with
  | Some pool -> pool
  | None ->
    let pool = create () in
    global := Some pool;
    at_exit (fun () -> shutdown pool);
    pool

let chunk_sizes ~n ~chunks =
  if n < 0 then invalid_arg "Parallel.chunk_sizes: n < 0";
  if chunks < 1 then invalid_arg "Parallel.chunk_sizes: chunks < 1";
  let base = n / chunks and extra = n mod chunks in
  Array.init chunks (fun i -> if i < extra then base + 1 else base)

let slice_bounds ~n ~chunks =
  if n < 0 then invalid_arg "Parallel.slice_bounds: n < 0";
  if chunks < 1 then invalid_arg "Parallel.slice_bounds: chunks < 1";
  let base = n / chunks and extra = n mod chunks in
  Array.init (chunks + 1) (fun i -> (i * base) + min i extra)

let default_chunks_with ~domains ~spec =
  let fallback = 8 * max 1 domains in
  match spec with
  | None -> fallback
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> fallback)

let default_chunks ?pool () =
  let domains =
    match pool with
    | Some pool -> num_domains pool
    | None -> default_num_domains ()
  in
  default_chunks_with ~domains ~spec:(Sys.getenv_opt "CONFCASE_CHUNKS")

(* One result slot per cache line: chunk results are written concurrently
   by different domains, and OCaml float/pointer array entries are one
   word, so adjacent chunk indices would otherwise share a line and
   ping-pong it between cores (false sharing).  Spacing slots by 8 words
   (64 bytes) keeps each write on its own line at the cost of a slightly
   larger — still O(chunks) — array. *)
let slot_stride = 8

(* Batch execution: instead of one queued closure (and so one
   mutex-protected queue round-trip) per chunk, the batch is a single
   atomic chunk counter and one [runner] closure enqueued per worker.
   Each participating domain claims chunk indices by [fetch_and_add] —
   lock-free — until the counter is exhausted, so the per-chunk dispatch
   cost drops from a mutex cycle to one atomic increment, and an
   oversubscribed chunk count (the load-balancing default, see
   [default_chunks]) stays cheap. *)
let run_batch pool ~chunks body =
  let results = Array.make (chunks * slot_stride) None in
  let next = Atomic.make 0 in
  let pending = Atomic.make chunks in
  let error = Atomic.make None in
  let batch_mutex = Mutex.create () in
  let batch_done = Condition.create () in
  let rec runner () =
    let i = Atomic.fetch_and_add next 1 in
    if i < chunks then begin
      (match body i with
      | v -> results.(i * slot_stride) <- Some v
      | exception e -> (
        (* Keep the first error; a lost race means another chunk's
           exception is reported instead, which the contract allows. *)
        match Atomic.get error with
        | None -> ignore (Atomic.compare_and_set error None (Some e))
        | Some _ -> ()));
      if Atomic.fetch_and_add pending (-1) = 1 then begin
        (* Last chunk out signals the batch; the lock orders the signal
           after the caller's wait (no missed wakeup). *)
        Mutex.lock batch_mutex;
        Condition.broadcast batch_done;
        Mutex.unlock batch_mutex
      end;
      runner ()
    end
  in
  let helpers = min (Array.length pool.workers) (chunks - 1) in
  if helpers > 0 then begin
    Mutex.lock pool.mutex;
    for _ = 1 to helpers do
      Queue.push runner pool.queue
    done;
    Condition.broadcast pool.work_available;
    Mutex.unlock pool.mutex
  end;
  (* The caller participates in its own batch. *)
  runner ();
  Mutex.lock batch_mutex;
  while Atomic.get pending > 0 do
    Condition.wait batch_done batch_mutex
  done;
  Mutex.unlock batch_mutex;
  (match Atomic.get error with Some e -> raise e | None -> ());
  Array.init chunks (fun i ->
      match results.(i * slot_stride) with
      | Some v -> v
      | None -> assert false)

let map_chunks_in pool ~chunks body =
  if chunks < 1 then invalid_arg "Parallel.map_chunks: chunks < 1";
  if Array.length pool.workers = 0 then begin
    (* Sequential path: no queue traffic, exceptions propagate directly. *)
    if chunks = 1 then [| body 0 |]
    else begin
      let first = body 0 in
      let results = Array.make chunks first in
      for i = 1 to chunks - 1 do
        results.(i) <- body i
      done;
      results
    end
  end
  else run_batch pool ~chunks body

let map_chunks ?pool ~chunks body =
  match pool with
  | Some pool -> map_chunks_in pool ~chunks body
  | None -> with_pool (fun pool -> map_chunks_in pool ~chunks body)

let parallel_for_reduce ?pool ~chunks ~init ~body ~merge =
  Array.fold_left merge init (map_chunks ?pool ~chunks body)

(* The stream rule.  An explicit [~chunks] wins (the repro layer passes
   one, for cross-machine reproducibility); otherwise the oversubscribed
   default applies. *)
let resolve_chunks ?pool ?chunks name =
  match chunks with
  | Some c ->
    if c < 1 then invalid_arg (name ^ ": chunks < 1");
    c
  | None -> default_chunks ?pool ()

(* The split-stream array is only ever read: each chunk advances a copy
   made in the domain that runs it, so domains never write to
   adjacently allocated records (false sharing). *)
let streams ~seed ~chunks =
  let split = Rng.split_n (Rng.create seed) chunks in
  fun i -> Rng.copy split.(i)

let fan_out ?pool ?chunks ~name ~n ~seed ~init ~merge body =
  let chunks = resolve_chunks ?pool ?chunks name in
  let sizes = chunk_sizes ~n ~chunks in
  let stream = streams ~seed ~chunks in
  parallel_for_reduce ?pool ~chunks ~init ~merge ~body:(fun i ->
      body ~size:sizes.(i) (stream i))
