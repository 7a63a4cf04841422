(** What remains of the retired sharded tuple store: its lookup
    counter.

    The store itself is gone — {!Backend} reads the flat {!Instance},
    coverage's example stores are {!Columnar}, and nothing in the
    library increments this counter any more. It stays
    registered under its old name because the per-layer benchmark
    ([perfbench]) still reads it for its [relational.store.lookups]
    metric, which reports 0 since no default run touches a store.
    Delete this module once that metric is repointed at the columnar
    counters. *)

let c_lookups = Castor_obs.Obs.Counter.create "store.lookups"
