open Ocep_base
module Engine = Ocep.Engine
module Poet = Ocep_poet.Poet
module Metrics = Ocep_obs.Metrics
module Watermark = Ocep_obs.Watermark

type stats = {
  frames : int;
  crc_errors : int;
  bad_frames : int;
  truncated : bool;
  queue_shed : int;
  queue_max_occupancy : int;
  admission : Admission.stats;
}

(* Registered on demand in the engine's registry; instruments are
   created once (Metrics re-registration returns the existing one), so
   several replays into one engine accumulate. *)
type meters = {
  g_frames : Metrics.counter;
  g_crc : Metrics.counter;
  g_bad : Metrics.counter;
  g_truncated : Metrics.counter;
  g_admitted : Metrics.counter;
  g_duplicates : Metrics.counter;
  g_late : Metrics.counter;
  g_reordered : Metrics.counter;
  g_gaps : Metrics.counter;
  g_trace_gaps : Metrics.counter;
  g_orphans : Metrics.counter;
  g_shed : Metrics.counter;
  g_depth : Ocep_stats.Histogram.t;
  g_occupancy : Ocep_stats.Histogram.t;
}

let meters engine =
  let m = Engine.metrics engine in
  let c ?help name = Metrics.counter m ?help name in
  {
    g_frames = c ~help:"Well-formed frames offered to admission" "ocep_ingest_frames_total";
    g_crc = c ~help:"Frames dropped on checksum mismatch" "ocep_ingest_crc_errors_total";
    g_bad = c ~help:"CRC-valid frames that failed to decode" "ocep_ingest_bad_frames_total";
    g_truncated = c ~help:"Streams that ended mid-frame" "ocep_ingest_truncated_total";
    g_admitted = c ~help:"Events released to the engine" "ocep_ingest_admitted_total";
    g_duplicates = c ~help:"Duplicate record ids suppressed" "ocep_ingest_duplicates_total";
    g_late = c ~help:"Frames arriving after their id was skipped" "ocep_ingest_late_total";
    g_reordered = c ~help:"Frames buffered for reordering" "ocep_ingest_reordered_total";
    g_gaps = c ~help:"Record ids given up on" "ocep_ingest_gaps_total";
    g_trace_gaps =
      c ~help:"Events lost to gaps, attributed per trace" "ocep_ingest_trace_gaps_total";
    g_orphans =
      c ~help:"Receives dropped because their send fell into a gap"
        "ocep_ingest_orphan_receives_total";
    g_shed = c ~help:"Frames dropped by queue backpressure" "ocep_ingest_queue_shed_total";
    g_depth =
      Metrics.histogram m ~help:"Reorder-buffer depth after each frame that buffered"
        "ocep_ingest_reorder_depth";
    g_occupancy =
      Metrics.histogram m ~help:"Ingest-queue length at each consumer wakeup"
        "ocep_ingest_queue_occupancy";
  }

let check_traces engine reader =
  let expect = Poet.trace_names (Engine.poet engine) in
  let got = Framing.reader_trace_names reader in
  if got <> expect then
    invalid_arg
      (Printf.sprintf "Source.replay_stream: stream traces [%s] do not match the engine's [%s]"
         (String.concat "; " (Array.to_list got))
         (String.concat "; " (Array.to_list expect)))

let tick_every = 1024

(* Full timing is stamped on one frame in 64 ([sample_mask]); the rest
   reuse the most recent stamp and advance the watermark trackers only.
   Ids, verdicts, watermarks and lag stay exact on every record; the
   latency histograms and the sub-window timestamp precision come from
   the sampled subset.  This is what keeps the always-on provenance +
   watermark plane inside a single-digit-percent budget: a clock read
   costs ~30 ns and a full stamp takes four of them, on a workload that
   matches an event in ~1.5 us. *)
let sample_mask = 63

(* The frame reader's state: the framed stream and the damage tallied
   while reading it. *)
type reader_state = {
  reader : Framing.reader;
  mutable crc_errors : int;
  mutable bad_frames : int;
  mutable truncated : bool;
  mutable finished : bool;  (* Eof or Truncated seen *)
}

let reader_state reader =
  { reader; crc_errors = 0; bad_frames = 0; truncated = false; finished = false }

(* filler for block buffers; never admitted *)
let no_frame =
  { Wire.id = -1; trace = 0; seq = 0; etype = ""; text = ""; kind = Event.Internal }

(* Decode frames into [buf] until it is full or the stream ends; return
   how many were stored. Damaged frames are tallied and skipped. With
   [timed], the first frame's decode time goes to [decode_us.(0)] (a
   float array, so the store does not box). *)
let read_block r ~timed ~decode_us buf =
  let n = ref 0 in
  let cap = Array.length buf in
  while !n < cap && not r.finished do
    let clock = timed && !n = 0 in
    let t0 = if clock then Clock.now_us () else 0. in
    match Framing.next r.reader with
    | Framing.Frame w ->
      if clock then Array.unsafe_set decode_us 0 (Clock.now_us () -. t0);
      Array.unsafe_set buf !n w;
      incr n
    | Framing.Crc_error -> r.crc_errors <- r.crc_errors + 1
    | Framing.Bad_frame _ -> r.bad_frames <- r.bad_frames + 1
    | Framing.Truncated ->
      r.truncated <- true;
      r.finished <- true
    | Framing.Eof -> r.finished <- true
  done;
  !n

let replay_stream ~admission ~pipeline ~queue_capacity ~queue_policy ~block_size
    ?(tick = fun () -> ()) ~engine reader =
  check_traces engine reader;
  let mt = meters engine in
  let wm = Watermark.create (Engine.metrics engine) in
  (* true while the frame being pushed carries fresh stamps; consulted
     by [emit], which runs synchronously inside the push *)
  let sampling = ref true in
  let last_us = ref (Clock.now_us ()) in
  let adm =
    Admission.create ~config:admission
      ~on_depth:(fun d ->
        Ocep_stats.Histogram.record mt.g_depth (float_of_int d);
        Watermark.set_depth wm d)
      ~on_drop:(fun verdict id -> Engine.note_wire_drop engine ~id ~verdict)
      ~n_traces:(Poet.trace_count (Engine.poet engine))
      ~emit:(fun ~verdict ~decode_us ~admit_us w ->
        (* a buffered release carries a fresh admit stamp ([admit_us >
           decode_us]) and is rare enough to always time in full *)
        if !sampling || admit_us > decode_us then begin
          Watermark.observe_admit wm ~id:w.Wire.id ~dur_us:(admit_us -. decode_us);
          Engine.set_wire_stamps engine ~decode_us ~admit_us;
          let t0 = Clock.now_us () in
          ignore (Engine.feed_wire engine ~id:w.Wire.id ~verdict (Wire.to_raw w));
          Watermark.observe_match wm ~id:w.Wire.id ~dur_us:(Clock.now_us () -. t0)
        end
        else begin
          (* unsampled: the engine still holds the window's stamps *)
          Watermark.advance_admit wm ~id:w.Wire.id;
          ignore (Engine.feed_wire engine ~id:w.Wire.id ~verdict (Wire.to_raw w));
          Watermark.advance_match wm ~id:w.Wire.id
        end)
      ()
  in
  let seen = ref 0 in
  (* [stamps.(0)]: decode time of the block's first frame; [stamps.(1)]:
     when the reader domain queued the block (pipelined mode only) *)
  let stamps = [| 0.; 0. |] in
  (* The one admit path: push a block's frames in order. Full clock
     stamps land on the block's first frame when it falls on the sample
     cadence; the rest reuse the latest stamp and advance the watermark
     trackers only. *)
  let admit_block ~queued buf n =
    for i = 0 to n - 1 do
      let w = Array.unsafe_get buf i in
      let sampled = i = 0 && !seen land sample_mask = 0 in
      sampling := sampled;
      if sampled then begin
        let now = Clock.now_us () in
        Watermark.observe_decode wm ~id:w.Wire.id ~dur_us:(Array.unsafe_get stamps 0);
        if queued then Watermark.observe_queue wm ~dur_us:(now -. Array.unsafe_get stamps 1);
        last_us := now;
        Admission.push ~at_us:now adm w
      end
      else begin
        Watermark.advance_decode wm ~id:w.Wire.id;
        Admission.push ~at_us:!last_us adm w
      end;
      incr seen;
      if !seen mod tick_every = 0 then begin
        (* publish point: bring the watermark gauges up to the exact
           trackers before the tick callback republishes telemetry *)
        Watermark.sync wm;
        tick ()
      end
    done
  in
  let block = max 1 block_size in
  let r, queue_shed, queue_max =
    if not pipeline then begin
      (* read a block, admit it, repeat — one reused buffer; the decode
         clock runs only when the block's first frame will be sampled *)
      let r = reader_state reader in
      let buf = Array.make block no_frame in
      while not r.finished do
        let n = read_block r ~timed:(!seen land sample_mask = 0) ~decode_us:stamps buf in
        admit_block ~queued:false buf n
      done;
      (r, 0, 0)
    end
    else begin
      (* a reader domain decodes and CRC-checks blocks and hands each
         over with one queue operation; this domain admits and matches.
         Each block is a fresh array (ownership moves across domains)
         and carries its first frame's decode time and its enqueue
         stamp. Damage is tallied reader-side and handed back at join,
         so all metrics stay single-domain. *)
      let q = Bqueue.create ~policy:queue_policy ~capacity:queue_capacity () in
      let producer =
        Domain.spawn (fun () ->
            let r = reader_state reader in
            let decode_us = [| 0. |] in
            Fun.protect
              ~finally:(fun () -> Bqueue.close q)
              (fun () ->
                while not r.finished do
                  let buf = Array.make block no_frame in
                  let n = read_block r ~timed:true ~decode_us buf in
                  if n > 0 then ignore (Bqueue.push q (buf, n, decode_us.(0), Clock.now_us ()))
                done);
            r)
      in
      let continue = ref true in
      while !continue do
        Ocep_stats.Histogram.record mt.g_occupancy (float_of_int (Bqueue.length q));
        match Bqueue.pop q with
        | Some (buf, n, decode_us, queued_us) ->
          stamps.(0) <- decode_us;
          stamps.(1) <- queued_us;
          admit_block ~queued:true buf n
        | None -> continue := false
      done;
      let r = Domain.join producer in
      (r, Bqueue.shed q, Bqueue.max_occupancy q)
    end
  in
  Admission.finish adm;
  Watermark.sync wm;
  let a = Admission.stats adm in
  Metrics.incr mt.g_frames ~by:a.Admission.frames ();
  Metrics.incr mt.g_crc ~by:r.crc_errors ();
  Metrics.incr mt.g_bad ~by:r.bad_frames ();
  Metrics.incr mt.g_truncated ~by:(if r.truncated then 1 else 0) ();
  Metrics.incr mt.g_admitted ~by:a.Admission.admitted ();
  Metrics.incr mt.g_duplicates ~by:a.Admission.duplicates ();
  Metrics.incr mt.g_late ~by:a.Admission.late ();
  Metrics.incr mt.g_reordered ~by:a.Admission.reordered ();
  Metrics.incr mt.g_gaps ~by:a.Admission.gaps ();
  Metrics.incr mt.g_trace_gaps ~by:(Array.fold_left ( + ) 0 a.Admission.trace_gaps) ();
  Metrics.incr mt.g_orphans ~by:a.Admission.orphan_receives ();
  Metrics.incr mt.g_shed ~by:queue_shed ();
  {
    frames = a.Admission.frames;
    crc_errors = r.crc_errors;
    bad_frames = r.bad_frames;
    truncated = r.truncated;
    queue_shed;
    queue_max_occupancy = queue_max;
    admission = a;
  }
