(** Training and testing examples.

    Examples are ground atoms of the target relation (which is not
    part of the schema); positives and negatives are kept separate, as
    in Definition 3.1. *)

open Castor_logic

type t = { pos : Atom.t array; neg : Atom.t array }

let make ~pos ~neg = { pos = Array.of_list pos; neg = Array.of_list neg }

let n_pos t = Array.length t.pos

let n_neg t = Array.length t.neg

(** Deterministic in-place Fisher-Yates shuffle. *)
let shuffle rng arr =
  let a = Array.copy arr in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

(** [folds ~seed k t] splits [t] into [k] (train, test) pairs for
    cross validation, stratified so each fold keeps the
    positive/negative ratio. *)
let folds ~seed k t =
  let rng = Random.State.make [| seed |] in
  let pos = shuffle rng t.pos and neg = shuffle rng t.neg in
  let split arr i =
    let n = Array.length arr in
    let test = ref [] and train = ref [] in
    Array.iteri
      (fun j x -> if j mod k = i then test := x :: !test else train := x :: !train)
      arr;
    ignore n;
    (List.rev !train, List.rev !test)
  in
  List.init k (fun i ->
      let ptr, pte = split pos i and ntr, nte = split neg i in
      ( { pos = Array.of_list ptr; neg = Array.of_list ntr },
        { pos = Array.of_list pte; neg = Array.of_list nte } ))

(** [subsample ~seed ~pos:np ~neg:nn t] keeps at most [np] positives
    and [nn] negatives, selected uniformly. *)
let subsample ~seed ~pos:np ~neg:nn t =
  let rng = Random.State.make [| seed |] in
  let take n arr =
    let a = shuffle rng arr in
    Array.sub a 0 (min n (Array.length a))
  in
  { pos = take np t.pos; neg = take nn t.neg }

(** [closed_world_negatives ~seed ~ratio inst target pos] samples
    pseudo-negative examples under the closed-world assumption: random
    tuples over the target's attribute domains (drawn from the values
    actually occurring in [inst]) that are not among the positives.
    This is how a learner restricted to safe clauses can be trained
    from positive examples only (Section 7.3) — and how the paper's
    UW-CSE and IMDb negatives were produced (Section 9.1.1). *)
let closed_world_negatives ~seed ?(ratio = 2) inst
    (target : Castor_relational.Schema.relation) (pos : Atom.t array) =
  let open Castor_relational in
  let rng = Random.State.make [| seed |] in
  let schema = Instance.schema inst in
  (* candidate constants per target argument: values stored under any
     attribute with the same domain *)
  let pool_of (a : Schema.attribute) =
    List.concat_map
      (fun (r : Schema.relation) ->
        List.filter_map
          (fun (a' : Schema.attribute) ->
            if String.equal a'.Schema.domain a.Schema.domain then
              Some (Instance.column_values inst r.Schema.rname a'.Schema.aname)
            else None)
          r.Schema.attrs
        |> List.concat)
      schema.Schema.relations
    |> List.sort_uniq Value.compare |> Array.of_list
  in
  let pools = List.map pool_of target.Schema.attrs in
  if List.exists (fun p -> Array.length p = 0) pools then [||]
  else begin
    let is_pos a = Array.exists (Atom.equal a) pos in
    let out = ref [] in
    let seen = ref Atom.Set.empty in
    let want = ratio * Array.length pos in
    let attempts = ref 0 in
    while List.length !out < want && !attempts < 100 * want do
      incr attempts;
      let args =
        List.map
          (fun pool -> Term.Const pool.(Random.State.int rng (Array.length pool)))
          pools
      in
      let a = Atom.make target.Schema.rname args in
      if (not (Atom.Set.mem a !seen)) && not (is_pos a) then begin
        seen := Atom.Set.add a !seen;
        out := a :: !out
      end
    done;
    Array.of_list (List.rev !out)
  end

(** Relation name the examples are drawn from, when it is uniform
    across positives and negatives; [None] on empty or mixed sets. *)
let target_relation t =
  let names =
    Array.to_list (Array.append t.pos t.neg)
    |> List.map (fun (a : Atom.t) -> a.Atom.rel)
    |> List.sort_uniq String.compare
  in
  match names with [ r ] -> Some r | _ -> None

(** [mutation_stream ~seed ?length inst t] draws a deterministic
    interleaved add/remove delta stream over the {e non-target}
    relations of [inst] — the tuple-stream shape the online coverage
    path absorbs without a full refresh. Removals pick stored tuples;
    additions recombine stored column values into (usually fresh)
    tuples, so both directions stay inside the attribute domains.
    Ineffective deltas (re-removing, re-adding) may occur and are
    dropped by the substrate on application. Used by the incremental
    bench replay and the mutation-stream differential battery. *)
let mutation_stream ~seed ?(length = 16) inst t =
  let open Castor_relational in
  let rng = Random.State.make [| seed |] in
  let target = Option.value ~default:"" (target_relation t) in
  let rels =
    List.filter
      (fun (r : Schema.relation) ->
        (not (String.equal r.Schema.rname target))
        && Instance.cardinality inst r.Schema.rname > 0)
      (Instance.schema inst).Schema.relations
    |> Array.of_list
  in
  if Array.length rels = 0 then []
  else
    List.init length (fun _ ->
        let r = rels.(Random.State.int rng (Array.length rels)) in
        let rel = r.Schema.rname in
        let stored = Array.of_list (Instance.tuples inst rel) in
        if Random.State.bool rng then
          Delta.Remove (rel, stored.(Random.State.int rng (Array.length stored)))
        else
          let arity = List.length r.Schema.attrs in
          let tu =
            Array.init arity (fun j ->
                let row = stored.(Random.State.int rng (Array.length stored)) in
                row.(j))
          in
          Delta.Add (rel, tu))

let pp ppf t =
  Fmt.pf ppf "%d positive / %d negative examples" (n_pos t) (n_neg t)
