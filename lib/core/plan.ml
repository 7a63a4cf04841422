(** Per-schema execution plan for Castor.

    The plan precomputes the inclusion classes, the chase links and
    their column positions — the information the paper's
    implementation bakes into a per-schema stored procedure
    (Section 7.5.2). Building a plan once and reusing it across
    bottom-clause constructions is Castor's "with stored procedures"
    configuration; Table 13 measures the cost of rebuilding it on
    every call. *)

open Castor_relational

type chase_link = {
  link : Inclusion.link;
  src_pos : int list;  (** positions of the join attrs in the source *)
  dst_pos : int list;  (** positions of the join attrs in the target *)
}

type t = {
  schema : Schema.t;
  inclusion : Inclusion.t;
  mode : Inclusion.mode;
  join_limit : int;  (** max joining tuples fetched per IND per tuple *)
  chase : (string, chase_link list) Hashtbl.t;
}

(** [build ?mode ?join_limit schema] precomputes the chase metadata.
    [join_limit] is the paper's cap of 10 joining tuples. *)
let build ?(mode : Inclusion.mode = `Equality_only) ?(join_limit = 10) schema =
  let inclusion = Inclusion.build ~mode schema in
  let chase = Hashtbl.create 16 in
  List.iter
    (fun (r : Schema.relation) ->
      let links = Inclusion.links inclusion r.Schema.rname in
      let entries =
        List.map
          (fun l ->
            let src_pos, dst_pos = Inclusion.link_positions inclusion l in
            { link = l; src_pos; dst_pos })
          links
      in
      Hashtbl.replace chase r.Schema.rname entries)
    schema.Schema.relations;
  { schema; inclusion; mode; join_limit; chase }

let chase_links t rel = Option.value ~default:[] (Hashtbl.find_opt t.chase rel)

(** [expand t inst rel tuple] returns the tuples joining with [tuple]
    through the inclusion-class INDs — the IND chase of Section 7.1.

    The chase reconstructs the joined row(s) the class's relations
    decompose: it walks the class's IND links breadth-first but visits
    every {e relation} at most once per chase (a traversal of the join
    tree, which exists because the class's join is acyclic —
    Proposition 7.4). Without the once-per-relation rule the chase
    would wander the data graph transitively (director → movie →
    another director → ...) and drag in unrelated rows. Up to
    [join_limit] partners are fetched per link per tuple.

    Every value a join probe binds is reported to the running
    saturation's probe recorder ({!Castor_ilp.Bottom.note_probe}):
    a delta can change a probe's answer only if its tuple holds those
    values, so they belong to the saturation's probe set. (A link
    over zero attributes would read its whole relation, which no
    value covers; decompositions and IND discovery never declare
    one.) *)
let expand t inst rel (tuple : Tuple.t) =
  (* the chase's join probes read through the backend seam, like every
     other clause-evaluation path *)
  let module B = (val Backend.of_instance inst : Backend.S) in
  (* keyed on the tuple itself: a printed key would merge s(k,5) with
     s(k,"5"), and s(k,"a, b","c") with s(k,"a","b, c") *)
  let seen : (string * Tuple.t, unit) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.replace seen (rel, tuple) ();
  let out = ref [] in
  let fetched : (string, Tuple.t list ref) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.replace fetched rel (ref [ tuple ]);
  let visited_rel : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.replace visited_rel rel ();
  let frontier = ref [ rel ] in
  while !frontier <> [] do
    (* open one BFS level of the relation join tree: links from the
       frontier relations to not-yet-visited relations *)
    let level_links =
      List.concat_map
        (fun r ->
          List.filter_map
            (fun cl ->
              if Hashtbl.mem visited_rel cl.link.Inclusion.dst then None
              else Some (r, cl))
            (chase_links t r))
        !frontier
    in
    let next = ref [] in
    List.iter
      (fun (_, cl) ->
        let d = cl.link.Inclusion.dst in
        if not (Hashtbl.mem visited_rel d) then begin
          Hashtbl.replace visited_rel d ();
          next := d :: !next
        end)
      level_links;
    List.iter
      (fun (r, cl) ->
        let d = cl.link.Inclusion.dst in
        let sources =
          match Hashtbl.find_opt fetched r with Some b -> !b | None -> []
        in
        List.iter
          (fun (tu : Tuple.t) ->
            let bindings =
              List.map2 (fun sp dp -> (dp, tu.(sp))) cl.src_pos cl.dst_pos
            in
            List.iter (fun (_, v) -> Castor_ilp.Bottom.note_probe v) bindings;
            let matches = B.find_matching d bindings in
            let rec take n = function
              | [] -> ()
              | m :: rest ->
                  if n <= 0 then ()
                  else begin
                    let k = (d, m) in
                    if not (Hashtbl.mem seen k) then begin
                      Hashtbl.replace seen k ();
                      out := (d, m) :: !out;
                      let bucket =
                        match Hashtbl.find_opt fetched d with
                        | Some b -> b
                        | None ->
                            let b = ref [] in
                            Hashtbl.replace fetched d b;
                            b
                      in
                      bucket := m :: !bucket
                    end;
                    take (n - 1) rest
                  end
            in
            take t.join_limit matches)
          sources)
      level_links;
    frontier := List.rev !next
  done;
  List.rev !out
