(** Work-sharing across OCaml domains, used to parallelize coverage
    tests (Section 7.5.3: "Castor divides E in subsets and performs
    coverage testing for each subset in parallel").

    Workers are long-lived domains fed from a shared task queue, so
    the per-call overhead is a few condition-variable signals rather
    than domain spawns. When the runtime reports a single hardware
    thread, requests for parallelism fall back to sequential
    evaluation — extra domains can only add overhead there (the
    Figure 2 experiment records exactly this on single-core hosts). *)

module Obs = Castor_obs.Obs

(* [tasks] counts the worker-side task closures actually submitted to
   the pool — zero when a call fell back to sequential evaluation, so
   tests can assert that forced parallelism really fanned out. *)
let c_tasks = Obs.Counter.create "ilp.parallel.tasks"

(* chunks pulled from the shared cursor, across caller and workers *)
let c_chunks = Obs.Counter.create "ilp.parallel.chunks"

type task = unit -> unit

let queue : task Queue.t = Queue.create ()

let mutex = Mutex.create ()

let nonempty = Condition.create ()

(* read/CAS'd by the caller in [ensure_workers] while dying workers
   decrement concurrently, so it must be atomic rather than a ref *)
let n_workers = Atomic.make 0

(* Asynchronous/fatal exceptions must not be swallowed: a worker that
   ran out of memory or stack is in an unknown state and its domain
   must die (and be respawned on the next [ensure_workers]). *)
let is_fatal = function Out_of_memory | Stack_overflow -> true | _ -> false

let worker () =
  while true do
    Mutex.lock mutex;
    while Queue.is_empty queue do
      Condition.wait nonempty mutex
    done;
    let t = Queue.pop queue in
    Mutex.unlock mutex;
    (* an ordinary raising task must not kill the worker — the task
       wrapper in [init] routes its exception through [note_exn] and
       the caller detects the missing result; fatal exceptions
       re-raise and terminate the domain, which the wrapper has
       already taken off [n_workers] *)
    try t () with e when is_fatal e -> raise e | _ -> ()
  done

(* Workers are daemons: they hold no resources that need cleanup, and
   process exit tears them down. The CAS loop claims each slot before
   spawning, so a concurrent fatal-death decrement can never be lost
   and the pool can never overshoot [n]. *)
let rec ensure_workers n =
  let cur = Atomic.get n_workers in
  if cur < n then
    if Atomic.compare_and_set n_workers cur (cur + 1) then begin
      ignore (Domain.spawn worker);
      ensure_workers n
    end
    else ensure_workers n

let submit t =
  Mutex.lock mutex;
  Queue.push t queue;
  Condition.signal nonempty;
  Mutex.unlock mutex

(** Number of hardware threads reported by the runtime. *)
let recommended_domains () = Domain.recommended_domain_count ()

(** [init ~domains n f] is [Array.init n f] computed by up to
    [domains] domains. Indices are handed out in chunks from a shared
    atomic cursor, so expensive clusters (e.g. the failing negatives
    of a coverage vector) spread over whichever workers are free
    instead of landing on one stride. [f] must be thread-safe
    (coverage tests are pure).

    Falls back to sequential evaluation for tiny arrays and on
    single-core hosts; [force] overrides both fallbacks (tests use it
    to exercise real worker domains even over small arrays).

    If [f] raises, the first exception is re-raised in the caller
    after every worker has finished, so the pool is left clean for
    later calls.

    Each worker flushes its domain-local {!Obs} counter scratch once
    per task — i.e. once per [init] call it participates in, not once
    per index chunk — before signalling completion, so counter totals
    read after [init] returns are exact at batched-flush cost. *)
let init ?(force = false) ~domains n (f : int -> 'b) : 'b array =
  let domains =
    if force then domains else min domains (recommended_domains ())
  in
  if domains <= 1 || n = 0 || (n < 8 && not force) then Array.init n f
  else begin
    let d = if force then min domains n else min domains ((n + 7) / 8) in
    if d <= 1 then Array.init n f
    else begin
      ensure_workers (d - 1);
      let results : 'b option array = Array.make n None in
      let remaining = ref (d - 1) in
      let done_m = Mutex.create () in
      let done_cv = Condition.create () in
      let failure : exn option Atomic.t = Atomic.make None in
      let note_exn e = ignore (Atomic.compare_and_set failure None (Some e)) in
      (* a few chunks per participant balances stealing overhead
         against load skew *)
      let chunk = max 1 (min 32 (n / (d * 4))) in
      let next = Atomic.make 0 in
      let compute () =
        try
          let continue_ = ref true in
          while !continue_ do
            let start = Atomic.fetch_and_add next chunk in
            if start >= n then continue_ := false
            else begin
              Obs.Counter.incr c_chunks;
              for i = start to min n (start + chunk) - 1 do
                results.(i) <- Some (f i)
              done
            end
          done
        with e ->
          (* record for the caller; a fatal exception additionally
             propagates so the hosting domain dies rather than keep
             computing in an unknown state *)
          note_exn e;
          if is_fatal e then raise e
      in
      (* flush counter scratch first so totals are exact once the
         caller resumes *)
      let signal () =
        Obs.flush ();
        Mutex.lock done_m;
        decr remaining;
        Condition.signal done_cv;
        Mutex.unlock done_m
      in
      for _k = 1 to d - 1 do
        submit (fun () ->
            Obs.Counter.incr c_tasks;
            (* signal even if [f] raised, so the caller never hangs.
               Only a fatal exception leaves [compute], and it kills
               this domain, so the domain leaves [n_workers] before
               the signal: the caller's next [ensure_workers] must not
               count it *)
            match compute () with
            | () -> signal ()
            | exception e ->
                Atomic.decr n_workers;
                signal ();
                raise e)
      done;
      (* the caller participates too; its fatal exception is already
         in [failure] and re-raised after the join below — raising
         here would skip the join and leave workers racing the next
         batch. Only fatal exceptions reach this handler: [compute]
         records every exception in [failure] and re-raises just the
         fatal ones, so nothing else can be absorbed. *)
      (try compute () with e when is_fatal e -> ());
      Mutex.lock done_m;
      while !remaining > 0 do
        Condition.wait done_cv done_m
      done;
      Mutex.unlock done_m;
      match Atomic.get failure with
      | Some e -> raise e
      | None ->
          Array.map (function Some v -> v | None -> assert false) results
    end
  end

(** [map ~domains f arr] maps in parallel. *)
let map ?force ~domains f arr =
  init ?force ~domains (Array.length arr) (fun i -> f arr.(i))
