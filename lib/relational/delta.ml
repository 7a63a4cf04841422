(** Explicit mutation deltas — the unit of the backend delta log.

    The paper treats the database as a fixed instance; the live-system
    roadmap treats it as a stream of tuple insertions and deletions.
    A {!t} is one element of that stream. The {!Instance} records
    every effective mutation as a delta in a {!Log}, the generation
    {e is} the log length, and downstream structures (coverage
    saturations and memos, materialized views) subscribe to the log
    and patch themselves instead of rebuilding. *)

type t =
  | Add of string * Tuple.t  (** tuple inserted into the named relation *)
  | Remove of string * Tuple.t  (** tuple deleted from the named relation *)

let add rel tuple = Add (rel, tuple)

let remove rel tuple = Remove (rel, tuple)

let rel = function Add (r, _) | Remove (r, _) -> r

let tuple = function Add (_, tu) | Remove (_, tu) -> tu

let is_add = function Add _ -> true | Remove _ -> false

(** Set-semantics inverse: applying [d] then [inverse d] is the
    identity on any substrate state that admitted [d]. *)
let inverse = function
  | Add (r, tu) -> Remove (r, tu)
  | Remove (r, tu) -> Add (r, tu)

let pp ppf = function
  | Add (r, tu) -> Fmt.pf ppf "+%s%a" r Tuple.pp tu
  | Remove (r, tu) -> Fmt.pf ppf "-%s%a" r Tuple.pp tu

let equal a b =
  match (a, b) with
  | Add (r, tu), Add (r', tu') | Remove (r, tu), Remove (r', tu') ->
      String.equal r r' && Tuple.equal tu tu'
  | _ -> false

(** The instance's delta log: the single source of truth for both
    the generation counter and subscriber notification. The instance
    appends only {e effective} deltas (a duplicate [Add] or absent
    [Remove] never reaches the log), so [length] retains the old
    generation contract — equal lengths imply unchanged data — while
    subscribers see exactly the mutations that happened. *)
module Log = struct
  type delta = t

  type t = {
    mutable len : int;
    mutable subscribers : (delta list -> unit) list;  (** registration order *)
  }

  let create () = { len = 0; subscribers = [] }

  (** Generation of the owning instance: number of effective deltas
      ever applied. *)
  let length l = l.len

  let subscribe l f = l.subscribers <- l.subscribers @ [ f ]

  (** [extend l ds] records a batch of effective deltas and notifies
      every subscriber once with the whole batch; an empty batch is a
      no-op (no generation movement, no callbacks). *)
  let extend l = function
    | [] -> ()
    | ds ->
        l.len <- l.len + List.length ds;
        List.iter (fun f -> f ds) l.subscribers
end
