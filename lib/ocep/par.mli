(** Parallel search (Section VI's third future-work item).

    "At each backtracking level, the traces are traversed sequentially.
    Each of these traces represents a subtree in the total search space.
    This parallelism can be exploited."

    [search] partitions the first backtracking level by trace: one task
    per trace pins the first-level leaf to that trace and runs the
    ordinary sequential matcher; the subtrees are disjoint, so a match
    found by any task is a match of the whole search, and all tasks
    failing is exhaustive failure. A shared stop flag lets the remaining
    tasks return immediately once a match is found. The tasks run on
    the engine's worker pool ({!Search_pool}), one per worker. *)

open Ocep_base
module Compile = Ocep_pattern.Compile

val search :
  pool:Search_pool.t ->
  net:Compile.inet ->
  history:History.t ->
  n_traces:int ->
  trace_of_sym:(int -> int option) ->
  partner_of:(Event.t -> Event.t option) ->
  anchor_leaf:int ->
  anchor:Event.t ->
  ?node_budget:int ->
  ?stats:Matcher.stats ->
  unit ->
  Matcher.outcome
(** Same contract as {!Matcher.search} without [pin]; [stats] is updated
    with the merged counters of all tasks. *)
