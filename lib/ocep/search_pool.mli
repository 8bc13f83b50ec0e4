(** A persistent pool of worker domains for fanning the engine's pinned
    searches out across cores (OCaml 5 [Domain]s; stdlib
    [Mutex]/[Condition]/[Atomic] only).

    One terminating arrival triggers one anchor search plus one pinned
    search per still-uncovered coverage slot; the pinned searches are
    independent read-only traversals of the shared history, so they can
    run concurrently. This pool is shaped for exactly that fan-out:

    - the pool is created once and reused for every arrival, so the
      per-batch cost is a broadcast and a barrier, not domain spawns;
    - tasks of a batch are indices [0 .. n-1] pulled from a shared
      atomic counter, so imbalanced searches (one slot exhausting a huge
      subtree while the others finish instantly) are load-balanced for
      free;
    - the submitting domain participates in the batch instead of
      blocking, so [create ~workers:p] spawns only [p - 1] domains and
      [workers:1] degenerates to a plain sequential loop with no domains
      at all.

    {!Engine} runs whole searches on it; {!Par} runs the slices of one
    search's first backtracking level on it.

    Thread-safety contract: the task function must only read state
    shared with other tasks and with the submitting domain. The engine's
    searches qualify — see "Parallel pinned-search fan-out" in
    DESIGN.md for the audit of the read-only-history invariant. *)

type t

val create : ?tracer:Ocep_obs.Tracer.t -> workers:int -> unit -> t
(** A pool of [max 1 workers] total workers: the caller plus
    [workers - 1] spawned domains. With [tracer], every worker records a
    ["drain"] span per batch it pulled tasks from, tagged with its
    domain id as the span's tid — the worker-domain rows of the Chrome
    trace. *)

val workers : t -> int
(** Total parallel workers (including the calling domain), at least 1. *)

type stats = {
  fan_outs : int;  (** batches submitted via {!run} *)
  tasks : int;  (** tasks executed across all batches *)
  busy_s : float array;
      (** wall-clock seconds each worker index spent draining batches
          (index 0 is the submitting domain); idle waits are excluded *)
}

val stats : t -> stats
(** A consistent snapshot of the pool's activity counters. *)

val run : t -> n:int -> (int -> 'a) -> 'a array
(** [run pool ~n f] evaluates [f 0 .. f (n-1)], each exactly once, in
    any order and concurrently across the pool's workers, and returns
    the results in index order after all have completed. The calling
    domain executes tasks too. If any task raises, the first exception
    observed is re-raised in the caller once the batch has drained (the
    barrier is never abandoned). Not reentrant: one [run] at a time per
    pool, and tasks must not submit to the pool they run on. *)

val shutdown : t -> unit
(** Terminate and join the worker domains. Idempotent; [run] afterwards
    raises [Invalid_argument]. Running domains keep the whole program
    alive, so the pool's owner must call this before exit. *)
