(** Join-acyclicity and generalized hypertree decomposition of a set
    of relation sorts.

    The paper only considers decompositions whose reconstruction join
    is acyclic (Section 4); Proposition 7.4 then guarantees the derived
    INDs with equality are non-cyclic, which is what makes Castor's
    IND chase terminate without scanning. The coverage kernel, on the
    other hand, must evaluate {e arbitrary} clause bodies — decomposed
    schema variants routinely turn acyclic bodies cyclic — so the GYO
    ear-removal procedure is extended here into a generalized
    hypertree decomposition builder: when ear removal stalls on a
    cyclic core, the two live clusters sharing the most attributes are
    merged into one bag and removal resumes. The result is a tree of
    bags whose width-1 case is exactly the classical join forest. *)

module SS = Set.Make (String)

(** A generalized hypertree decomposition of the input hyperedges.

    [bags.(b)] lists the input hyperedge indices covering bag [b] (a
    singleton for every bag of an acyclic input); [bag_vars.(b)] is
    the union of their attribute sets. [forest] pairs each bag with
    the bag it was removed against ([None] for the root of its
    connected component), in removal order — children always appear
    before their parent, which is exactly the bottom-up order a
    Yannakakis semi-join program must follow. [width] is the largest
    number of hyperedges merged into one bag: 1 on acyclic inputs
    (0 for the empty hypergraph), >= 2 whenever a cyclic core had to
    be clustered. *)
type decomposition = {
  bags : int list array;
  bag_vars : SS.t array;
  forest : (int * int option) list;
  width : int;
}

(** [decompose sorts] builds a generalized hypertree decomposition by
    GYO ear removal with greedy cyclic-core clustering. Clusters start
    as the singleton hyperedges; a cluster is an {e ear} when the
    attributes it shares with the other live clusters are all
    contained in one single other live cluster — its parent — or in
    none (a component root). Ears are removed until none is left; if
    live clusters remain the hypergraph is cyclic, and the live pair
    sharing the most attributes is merged (ties broken towards the
    lowest indices) before removal resumes. Merging never manufactures
    a Cartesian bag: a live cluster sharing nothing with the others
    would have been removed as a component root.

    On an acyclic input no merge ever fires, so the removal order —
    and hence [forest] — reproduces the classical join-forest ear
    order exactly; {!join_forest} is defined as that projection. *)
let decompose (sorts : string list list) =
  let n = List.length sorts in
  let vars = Array.of_list (List.map SS.of_list sorts) in
  let members = Array.init n (fun i -> [ i ]) in
  let alive = Array.make n true in
  let live = ref n in
  let order = ref [] in
  (* a cluster absorbed by a merge forwards to its absorber; parent
     links recorded before the merge resolve through the chain to the
     cluster that was eventually removed (its variables only ever
     grow, so the ear condition keeps holding) *)
  let redirect = Array.init n Fun.id in
  let rec resolve e = if redirect.(e) = e then e else resolve redirect.(e) in
  while !live > 0 do
    (* ear-removal sweep, repeated until no ear is left *)
    let progress = ref true in
    while !progress && !live > 0 do
      progress := false;
      for e = 0 to n - 1 do
        if alive.(e) then begin
          (* attributes of [e] still shared with another live cluster *)
          let shared = ref SS.empty in
          for f = 0 to n - 1 do
            if f <> e && alive.(f) then
              shared := SS.union !shared (SS.inter vars.(e) vars.(f))
          done;
          let parent = ref None in
          if SS.is_empty !shared then parent := Some None (* component root *)
          else begin
            (try
               for f = 0 to n - 1 do
                 if f <> e && alive.(f) && SS.subset !shared vars.(f) then begin
                   parent := Some (Some f);
                   raise Exit
                 end
               done
             with Exit -> ())
          end;
          match !parent with
          | None -> ()
          | Some p ->
              alive.(e) <- false;
              decr live;
              order := (e, p) :: !order;
              progress := true
        end
      done
    done;
    (* cyclic core: merge the live pair sharing the most attributes *)
    if !live > 0 then begin
      let best = ref None in
      for i = 0 to n - 1 do
        if alive.(i) then
          for j = i + 1 to n - 1 do
            if alive.(j) then begin
              let k = SS.cardinal (SS.inter vars.(i) vars.(j)) in
              match !best with
              | Some (k', _, _) when k' >= k -> ()
              | _ -> best := Some (k, i, j)
            end
          done
      done;
      match !best with
      | None ->
          (* [live > 0] after a stalled sweep implies at least two live
             clusters: a lone live cluster is always a component root *)
          assert false
      | Some (_, i, j) ->
          members.(i) <- members.(i) @ members.(j);
          vars.(i) <- SS.union vars.(i) vars.(j);
          alive.(j) <- false;
          redirect.(j) <- i;
          decr live
    end
  done;
  let order = List.rev !order in
  (* compact surviving cluster indices into dense bag slots *)
  let slot = Hashtbl.create 16 in
  List.iteri (fun k (e, _) -> Hashtbl.replace slot e k) order;
  let nbags = List.length order in
  let bags = Array.make nbags [] in
  let bag_vars = Array.make nbags SS.empty in
  List.iteri
    (fun k (e, _) ->
      bags.(k) <- members.(e);
      bag_vars.(k) <- vars.(e))
    order;
  let forest =
    List.map
      (fun (e, p) ->
        ( Hashtbl.find slot e,
          Option.map (fun f -> Hashtbl.find slot (resolve f)) p ))
      order
  in
  let width =
    Array.fold_left (fun acc m -> max acc (List.length m)) 0 bags
  in
  { bags; bag_vars; forest; width }

(** [join_forest sorts] returns [Some order] where [order] pairs each
    hyperedge index with the index of the edge it was removed against
    ([None] for the root of its connected component), listed in
    removal order — children always appear before their parent, the
    bottom-up order of a Yannakakis semi-join program
    ({!Algebra.semijoin_batch}). Returns [None] iff the hypergraph is
    cyclic. Defined as the width-1 projection of {!decompose}: every
    bag of an acyclic decomposition is a singleton hyperedge, and the
    bag removal order is the classical ear-removal order. *)
let join_forest (sorts : string list list) =
  let d = decompose sorts in
  if d.width > 1 then None
  else
    Some
      (List.map
         (fun (b, p) ->
           (List.hd d.bags.(b), Option.map (fun q -> List.hd d.bags.(q)) p))
         d.forest)

(** [is_acyclic sorts] decides whether the natural join of relations
    with the given attribute sets is acyclic. Equivalent to the
    Graham–Yu–Ozsoyoglu reduction (repeatedly delete attributes unique
    to one hyperedge and hyperedges contained in another); defined as
    [join_forest sorts <> None] so the two procedures can never drift
    apart (agreement with the classical reduction is pinned by a
    randomized test against an independent oracle). *)
let is_acyclic (sorts : string list list) = join_forest sorts <> None

(** [signature sorts] renders the variable co-occurrence structure of
    the hyperedges with attribute names normalized away
    (first-occurrence numbering) but {e edge order preserved}. Two
    inputs with equal signatures have identical decompositions bag for
    bag and index for index, up to the attribute names in [bag_vars] —
    which is what lets the coverage layer memoize decompositions by
    signature alone. *)
let signature (sorts : string list list) =
  let ids = Hashtbl.create 16 in
  let buf = Buffer.create 64 in
  List.iter
    (fun sort ->
      List.iter
        (fun a ->
          let id =
            match Hashtbl.find_opt ids a with
            | Some i -> i
            | None ->
                let i = Hashtbl.length ids in
                Hashtbl.add ids a i;
                i
          in
          Buffer.add_string buf (string_of_int id);
          Buffer.add_char buf ',')
        sort;
      Buffer.add_char buf ';')
    sorts;
  Buffer.contents buf
