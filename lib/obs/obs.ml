(* See obs.mli for the concurrency contract. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let registry_mutex = Mutex.create ()

(* ---------------------------------------------------------------- *)
(* Counters: Atomic totals + per-domain scratch                      *)
(* ---------------------------------------------------------------- *)

module Counter = struct
  type t = { name : string; help : string; id : int; total : int Atomic.t }

  (* registration order; read-only once workers run *)
  let registered : t list ref = ref []

  let next_id = Atomic.make 0

  (* Scratch cells of the calling domain, indexed by counter id. The
     array is grown lazily, so a domain spawned before the last
     registration still sees every counter. *)
  let scratch_key : int array Domain.DLS.key =
    Domain.DLS.new_key (fun () -> [||])

  let scratch () =
    let n = Atomic.get next_id in
    let a = Domain.DLS.get scratch_key in
    if Array.length a >= n then a
    else begin
      let b = Array.make n 0 in
      Array.blit a 0 b 0 (Array.length a);
      Domain.DLS.set scratch_key b;
      b
    end

  (* move [c]'s cell of the scratch [a] into its total *)
  let flush_cell a c =
    if c.id < Array.length a && a.(c.id) <> 0 then begin
      ignore (Atomic.fetch_and_add c.total a.(c.id));
      a.(c.id) <- 0
    end

  let flush () =
    let a = Domain.DLS.get scratch_key in
    List.iter (flush_cell a) !registered

  let create ?(help = "") name =
    Mutex.lock registry_mutex;
    let c =
      match List.find_opt (fun c -> String.equal c.name name) !registered with
      | Some c -> c
      | None ->
          let c =
            { name; help; id = Atomic.fetch_and_add next_id 1; total = Atomic.make 0 }
          in
          registered := !registered @ [ c ];
          c
    in
    Mutex.unlock registry_mutex;
    c

  let add c n =
    let a = scratch () in
    a.(c.id) <- a.(c.id) + n

  let incr c = add c 1

  let value c =
    flush_cell (Domain.DLS.get scratch_key) c;
    Atomic.get c.total

  let reset c =
    let a = scratch () in
    if c.id < Array.length a then a.(c.id) <- 0;
    Atomic.set c.total 0

  let name c = c.name
end

(* ---------------------------------------------------------------- *)
(* Spans: monotonic timers with log-bucketed latency histograms      *)
(* ---------------------------------------------------------------- *)

module Span = struct
  (* bucket i holds durations whose bit length is i, i.e. ns in
     [2^(i-1), 2^i); 63 buckets cover the whole positive int range *)
  let n_buckets = 63

  type t = {
    name : string;
    help : string;
    count : int Atomic.t;
    total_ns : int Atomic.t;
    max_ns : int Atomic.t;
    buckets : int Atomic.t array;
  }

  let registered : t list ref = ref []

  let create ?(help = "") name =
    Mutex.lock registry_mutex;
    let s =
      match List.find_opt (fun s -> String.equal s.name name) !registered with
      | Some s -> s
      | None ->
          let s =
            {
              name;
              help;
              count = Atomic.make 0;
              total_ns = Atomic.make 0;
              max_ns = Atomic.make 0;
              buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
            }
          in
          registered := !registered @ [ s ];
          s
    in
    Mutex.unlock registry_mutex;
    s

  let bucket_of ns =
    (* bit length of ns: 0 -> 0, [2^(i-1), 2^i) -> i *)
    let rec go i v = if v = 0 then i else go (i + 1) (v lsr 1) in
    min (n_buckets - 1) (go 0 ns)

  (* geometric midpoint of bucket i, in ns *)
  let bucket_mid i =
    if i = 0 then 0. else Float.of_int (1 lsl (i - 1)) *. sqrt 2.

  let record_ns s ns =
    let ns = max 0 ns in
    ignore (Atomic.fetch_and_add s.count 1);
    ignore (Atomic.fetch_and_add s.total_ns ns);
    ignore (Atomic.fetch_and_add s.buckets.(bucket_of ns) 1);
    let rec bump () =
      let cur = Atomic.get s.max_ns in
      if ns > cur && not (Atomic.compare_and_set s.max_ns cur ns) then bump ()
    in
    bump ()

  let with_span s f =
    let t0 = now_ns () in
    Fun.protect ~finally:(fun () -> record_ns s (now_ns () - t0)) f

  let count s = Atomic.get s.count

  let total_s s = Float.of_int (Atomic.get s.total_ns) *. 1e-9

  let quantile s q =
    let total = count s in
    if total = 0 then Float.nan
    else begin
      let rank = Float.to_int (ceil (q *. Float.of_int total)) in
      let rank = max 1 (min total rank) in
      let acc = ref 0 and result = ref (Float.of_int (Atomic.get s.max_ns)) in
      (try
         for i = 0 to n_buckets - 1 do
           acc := !acc + Atomic.get s.buckets.(i);
           if !acc >= rank then begin
             result := bucket_mid i;
             raise Exit
           end
         done
       with Exit -> ());
      !result *. 1e-9
    end

  let max_s s = Float.of_int (Atomic.get s.max_ns) *. 1e-9

  let reset s =
    Atomic.set s.count 0;
    Atomic.set s.total_ns 0;
    Atomic.set s.max_ns 0;
    Array.iter (fun b -> Atomic.set b 0) s.buckets

  let name s = s.name
end

(* ---------------------------------------------------------------- *)
(* Reservoirs: the K slowest labelled events                         *)
(* ---------------------------------------------------------------- *)

module Reservoir = struct
  type t = {
    name : string;
    help : string;
    capacity : int;
    lock : Mutex.t;
    mutable items : (float * string) list;  (** sorted slowest first *)
    floor : float Atomic.t;
        (** smallest kept duration once full: lock-free fast reject *)
  }

  let registered : t list ref = ref []

  let create ?(help = "") ?(capacity = 40) name =
    Mutex.lock registry_mutex;
    let r =
      match List.find_opt (fun r -> String.equal r.name name) !registered with
      | Some r -> r
      | None ->
          let r =
            {
              name;
              help;
              capacity;
              lock = Mutex.create ();
              items = [];
              floor = Atomic.make neg_infinity;
            }
          in
          registered := !registered @ [ r ];
          r
    in
    Mutex.unlock registry_mutex;
    r

  let note r dt label =
    if dt > Atomic.get r.floor then begin
      Mutex.lock r.lock;
      let rec insert = function
        | [] -> [ (dt, label) ]
        | (d, _) :: _ as rest when dt >= d -> (dt, label) :: rest
        | kept :: rest -> kept :: insert rest
      in
      let items = insert r.items in
      let items =
        if List.length items > r.capacity then
          List.filteri (fun i _ -> i < r.capacity) items
        else items
      in
      r.items <- items;
      if List.length items >= r.capacity then
        (match List.rev items with
        | (d, _) :: _ -> Atomic.set r.floor d
        | [] -> ());
      Mutex.unlock r.lock
    end

  let slowest r =
    Mutex.lock r.lock;
    let out = r.items in
    Mutex.unlock r.lock;
    out

  let reset r =
    Mutex.lock r.lock;
    r.items <- [];
    Atomic.set r.floor neg_infinity;
    Mutex.unlock r.lock

  let name r = r.name
end

(* ---------------------------------------------------------------- *)
(* Registry-wide operations                                          *)
(* ---------------------------------------------------------------- *)

let flush = Counter.flush

let reset () =
  flush ();
  List.iter Counter.reset !Counter.registered;
  List.iter Span.reset !Span.registered;
  List.iter Reservoir.reset !Reservoir.registered

let report () =
  flush ();
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let counters =
    List.filter (fun c -> Atomic.get c.Counter.total <> 0) !Counter.registered
  in
  let spans = List.filter (fun s -> Span.count s > 0) !Span.registered in
  let reservoirs =
    List.filter (fun r -> Reservoir.slowest r <> []) !Reservoir.registered
  in
  if counters = [] && spans = [] && reservoirs = [] then
    Buffer.add_string buf "(no recorded metrics)\n"
  else begin
    if counters <> [] then begin
      pf "counters:\n";
      List.iter
        (fun c -> pf "  %-34s %12d\n" c.Counter.name (Atomic.get c.Counter.total))
        counters
    end;
    if spans <> [] then begin
      pf "spans:%43s %10s %10s %10s %10s %10s\n" "count" "total s" "mean us"
        "p50 us" "p99 us" "max us";
      List.iter
        (fun s ->
          let n = Span.count s in
          let mean_us = Span.total_s s /. Float.of_int n *. 1e6 in
          pf "  %-40s %7d %10.3f %10.1f %10.1f %10.1f %10.1f\n" (Span.name s) n
            (Span.total_s s) mean_us
            (Span.quantile s 0.5 *. 1e6)
            (Span.quantile s 0.99 *. 1e6)
            (Span.max_s s *. 1e6))
        spans
    end;
    List.iter
      (fun r ->
        pf "slowest events (%s):\n" (Reservoir.name r);
        List.iteri
          (fun i (dt, label) ->
            if i < 10 then pf "  %8.4fs  %s\n" dt label)
          (Reservoir.slowest r))
      reservoirs
  end;
  Buffer.contents buf

(* minimal JSON encoder; labels may contain arbitrary bytes *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON numbers may not be nan/inf; quantiles of empty spans are *)
let json_float f =
  if Float.is_finite f then Printf.sprintf "%.9g" f else "null"

let to_json () =
  flush ();
  let buf = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "{\"counters\":{";
  List.iteri
    (fun i c ->
      pf "%s\"%s\":%d"
        (if i > 0 then "," else "")
        (json_escape c.Counter.name)
        (Atomic.get c.Counter.total))
    !Counter.registered;
  pf "},\"spans\":[";
  List.iteri
    (fun i s ->
      pf
        "%s{\"name\":\"%s\",\"count\":%d,\"total_s\":%s,\"p50_s\":%s,\"p90_s\":%s,\"p99_s\":%s,\"max_s\":%s}"
        (if i > 0 then "," else "")
        (json_escape (Span.name s))
        (Span.count s)
        (json_float (Span.total_s s))
        (json_float (Span.quantile s 0.5))
        (json_float (Span.quantile s 0.9))
        (json_float (Span.quantile s 0.99))
        (json_float (Span.max_s s)))
    !Span.registered;
  pf "],\"reservoirs\":[";
  List.iteri
    (fun i r ->
      pf "%s{\"name\":\"%s\",\"events\":["
        (if i > 0 then "," else "")
        (json_escape (Reservoir.name r));
      List.iteri
        (fun j (dt, label) ->
          pf "%s{\"seconds\":%s,\"label\":\"%s\"}"
            (if j > 0 then "," else "")
            (json_float dt) (json_escape label))
        (Reservoir.slowest r);
      pf "]}")
    !Reservoir.registered;
  pf "]}";
  Buffer.contents buf
