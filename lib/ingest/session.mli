(** One typed knob-set for driving a framed stream into an engine — the
    ingest path's public entry point since the service tier.

    Before this module, assembling a replay meant threading five
    separately-typed knobs ({!Admission.config}, queue capacity, queue
    policy, pipeline flag, block size) plus a CLI-side fault-injection
    dance through every call site. {!config} is the one flat record:
    the CLI's [ocep replay] flags, the service tier's per-tenant
    admission settings and the tests all build it from {!default} and
    override fields by name. It is the only replay config: {!replay} is
    the public entry point.

    Fault degradation ([faults]/[fault_seed]) lives here too: a faulted
    replay decodes the pristine log, applies the deterministic
    {!Ocep_workloads.Inject.apply_faults} schedule to the frame
    sequence, re-frames it into a temp file and replays that — so the
    degraded stream exercises exactly the same reader and admission
    path as a pristine one. *)

type config = {
  gap_policy : Admission.gap_policy;
  reorder_window : int;  (** max out-of-order frames held by admission; > 0 *)
  pipeline : bool;  (** decode on a dedicated domain, hand over a {!Bqueue} *)
  queue_capacity : int;  (** pipelined mode: blocks buffered between the domains *)
  queue_policy : Bqueue.policy;
      (** pipelined mode: a full queue stalls the reader ([Block]) or
          drops the offered block ([Shed], counted in [queue_shed]) *)
  block_size : int;
      (** frames decoded per block before admitting them, amortizing
          the decode loop's clock sampling and, pipelined, the queue
          hand-off (one push/pop per block instead of per frame).
          Admission order, verdicts, watermarks and lag are identical
          for every size; full clock stamps land on at most one frame
          per block, so only the timestamp precision of the latency
          histograms coarsens. [1] is the per-record path. *)
  faults : Ocep_workloads.Inject.faults;
      (** deterministic transport degradation applied to the frame
          sequence before admission; {!Ocep_workloads.Inject.no_faults}
          streams the input untouched *)
  fault_seed : int;  (** PRNG seed for [faults] *)
}

val default : config
(** [Wait] on gaps, window 1024, no pipeline, queue 4096 [Block],
    block size 1, no faults (seed 7). *)

val replay :
  ?config:config ->
  ?tick:(unit -> unit) ->
  ?log:(string -> unit) ->
  engine:Ocep.Engine.t ->
  Framing.reader ->
  Source.stats
(** Drive the reader into the engine under [config]. Without faults
    this is exactly the streaming path (constant memory); with faults
    the whole stream is decoded first (memory O(frames)) and [log], if
    given, receives one line describing the degradation (frame counts
    before and after). [tick] as in {!Source.replay_stream}. Raises
    [Invalid_argument] on a trace-table mismatch and lets
    {!Admission.Gap} escape, like the underlying stream replay. *)
