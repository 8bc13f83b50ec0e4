(* In-process passes over one stream, each timing the calls into one
   layer's public functions from outside the program. The end-to-end
   passes (direct feed, Session.replay) and the per-stage passes the
   traced run subtracts from them both live here. *)

module Poet = Ocep_poet.Poet
module Engine = Ocep.Engine
module Compile = Ocep_pattern.Compile
module Parser = Ocep_pattern.Parser
module Clock = Ocep_base.Clock
module Arena = Ocep_base.Arena
module Vc_pool = Ocep_base.Vc_pool
module Framing = Ocep_ingest.Framing
module Admission = Ocep_ingest.Admission
module Session = Ocep_ingest.Session
module Source = Ocep_ingest.Source
module Wire = Ocep_ingest.Wire
module Tracer = Ocep_obs.Tracer

(* Wall time and bytes allocated by one pass. *)
type cost = { ns : float; bytes : float }

let zero = { ns = 0.; bytes = 0. }
let ns_of c = c.ns
let sub a b = { ns = a.ns -. b.ns; bytes = a.bytes -. b.bytes }
let scale k c = { ns = c.ns *. k; bytes = c.bytes *. k }
let sum = List.fold_left (fun a b -> { ns = a.ns +. b.ns; bytes = a.bytes +. b.bytes }) zero
let per n c = (c.ns /. float_of_int n, c.bytes /. float_of_int n)

let measure f =
  let a0 = Gc.allocated_bytes () in
  let t0 = Clock.now_us () in
  let r = f () in
  let t1 = Clock.now_us () in
  let a1 = Gc.allocated_bytes () in
  (r, { ns = (t1 -. t0) *. 1e3; bytes = a1 -. a0 })

(* Spans of the traced run; dumped as Chrome trace JSON at the end. *)
let tracer = Tracer.create ~capacity:65_536

let span name cat ~ts_us ~dur_us = Tracer.record tracer ~name ~cat ~ts_us ~dur_us ~tid:0 ~args:[]

let traced name f =
  let t0 = Clock.now_us () in
  let r = f () in
  span name "ledger" ~ts_us:t0 ~dur_us:(Clock.now_us () -. t0);
  r

let compile src = Compile.compile (Parser.parse src)

let with_engine ?(config = Engine.default_config) names nets f =
  let poet = Poet.create ~trace_names:names () in
  let engine = Engine.create ~config ~patterns:nets ~poet () in
  Fun.protect ~finally:(fun () -> Engine.shutdown engine) (fun () -> f engine)

(* ------------------------------------------------------------------ *)
(* End-to-end entry points                                             *)
(* ------------------------------------------------------------------ *)

let feed engine raws = Array.iter (fun r -> Engine.feed_raw_flat engine r) raws

(* [feed] in segments of [segment] events, with one clock read per
   segment: the wall time of segment [b] goes to [times.(b)], in ns. *)
let segment = 1024
let segments n = (n + segment - 1) / segment

let feed_timed engine raws times =
  let n = Array.length raws in
  let last = ref (Clock.now_us ()) in
  for b = 0 to segments n - 1 do
    for i = b * segment to min n ((b + 1) * segment) - 1 do
      Engine.feed_raw_flat engine raws.(i)
    done;
    let now = Clock.now_us () in
    times.(b) <- (now -. !last) *. 1e3;
    last := now
  done

(* One direct-feed pass in which every feed_raw_flat call is timed and
   classed by whether it advanced [terminating_arrivals]: the match
   latency samples, and the terminating arrivals' share of time and of
   minor-heap allocation. With [trace], terminating calls (and every
   64th other call) become spans. *)
type split = {
  term_us : float array;  (** durations of terminating calls *)
  term_ns : float;
  other_ns : float;
  term_words : float;
  other_words : float;
}

let feed_split ?(trace = false) engine raws =
  let n = Array.length raws in
  let lat = Array.make n 0. and k = ref 0 in
  let term_ns = ref 0. and other_ns = ref 0. and term_w = ref 0. and other_w = ref 0. in
  for i = 0 to n - 1 do
    let before = Engine.terminating_arrivals engine in
    let w0 = Gc.minor_words () in
    let t0 = Clock.now_us () in
    Engine.feed_raw_flat engine raws.(i);
    let t1 = Clock.now_us () in
    let dw = Gc.minor_words () -. w0 in
    let dt = t1 -. t0 in
    if Engine.terminating_arrivals engine > before then begin
      lat.(!k) <- dt;
      incr k;
      term_ns := !term_ns +. (dt *. 1e3);
      term_w := !term_w +. dw;
      if trace then span "match" "engine" ~ts_us:t0 ~dur_us:dt
    end
    else begin
      other_ns := !other_ns +. (dt *. 1e3);
      other_w := !other_w +. dw;
      if trace && i land 63 = 0 then span "arrival" "engine" ~ts_us:t0 ~dur_us:dt
    end
  done;
  {
    term_us = Array.sub lat 0 !k;
    term_ns = !term_ns;
    other_ns = !other_ns;
    term_words = !term_w;
    other_words = !other_w;
  }

(* What one timed call costs with nothing inside: the mean gap between
   two back-to-back clock reads, in ns. [feed_split]'s per-call times
   carry it once each. *)
let clock_floor_ns =
  lazy
    (let n = 100_000 and acc = ref 0. in
     for _ = 1 to n do
       let a = Clock.now_us () in
       acc := !acc +. (Clock.now_us () -. a)
     done;
     !acc *. 1e3 /. float_of_int n)

(* Session.replay of a wire log. [tick] fires every 1024 frames on the
   ingesting domain; the gaps between ticks are the replay's batch
   latencies, recorded into [lat] (allocation-free: a float array). *)
let replay ?lat ?(trace = false) engine path =
  In_channel.with_open_bin path @@ fun ic ->
  let reader = Framing.create_reader ic in
  let last = ref (Clock.now_us ()) in
  let tick () =
    let now = Clock.now_us () in
    (match lat with
    | Some (a, k) when !k < Array.length a ->
      a.(!k) <- now -. !last;
      incr k
    | _ -> ());
    if trace then span "replay.tick" "session" ~ts_us:!last ~dur_us:(now -. !last);
    last := now
  in
  Session.replay ~tick ~engine reader

(* Frames refused for any reason but the seeded duplicates. *)
let failed_frames (st : Source.stats) =
  let a = st.Source.admission in
  st.Source.crc_errors + st.Source.bad_frames
  + (if st.Source.truncated then 1 else 0)
  + st.Source.queue_shed + a.Admission.late + a.Admission.gaps + a.Admission.orphan_receives

(* Heap held at end of stream with the engine alive: live words after a
   full major minus [base_words] (the same measure taken before the
   engine existed, so the benchmark's inputs cancel), plus the off-heap
   arena columns and clock pool. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let held_bytes ~base_words engine =
  let poet = Engine.poet engine in
  let live = live_words () - base_words in
  let off_heap = Arena.footprint_bytes (Poet.arena poet) + (Vc_pool.words (Poet.vc_pool poet) * 8) in
  float_of_int ((live * 8) + off_heap)

(* ------------------------------------------------------------------ *)
(* Per-stage passes                                                    *)
(* ------------------------------------------------------------------ *)

type framing = { f_cost : cost; f_frames : int; f_errors : int; f_bytes : int }

let framing_pass path =
  In_channel.with_open_bin path @@ fun ic ->
  let reader = Framing.create_reader ic in
  let header = pos_in ic in
  let frames = ref 0 and errors = ref 0 in
  let (), c =
    measure (fun () ->
        let rec go () =
          match Framing.next reader with
          | Framing.Frame _ ->
            incr frames;
            go ()
          | Framing.Crc_error | Framing.Bad_frame _ ->
            incr errors;
            go ()
          | Framing.Truncated -> incr errors
          | Framing.Eof -> ()
        in
        go ())
  in
  { f_cost = c; f_frames = !frames; f_errors = !errors; f_bytes = in_channel_length ic - header }

(* Admission alone over pre-decoded frames, releasing into nothing. *)
let admission_pass ~n_traces frames =
  let adm = Admission.create ~n_traces ~emit:(fun ~verdict:_ ~decode_us:_ ~admit_us:_ _ -> ()) () in
  let (), c =
    measure (fun () ->
        Array.iter (fun w -> Admission.push ~at_us:0. adm w) frames;
        Admission.finish adm)
  in
  (c, Admission.stats adm)

(* POET with no engine subscribed: timestamping, arena rows, clocks. *)
let poet_pass names raws =
  let poet = Poet.create ~trace_names:names () in
  let (), c = measure (fun () -> Array.iter (fun r -> ignore (Poet.ingest_flat poet r)) raws) in
  (c, Arena.footprint_bytes (Poet.arena poet), Vc_pool.words (Poet.vc_pool poet) * 8)

(* Framing + admission + engine composed from outside, without the
   Session's own glue (provenance stamps, watermarks, instruments). *)
let composed_pass engine path =
  In_channel.with_open_bin path @@ fun ic ->
  let reader = Framing.create_reader ic in
  let adm =
    Admission.create
      ~n_traces:(Array.length (Framing.reader_trace_names reader))
      ~emit:(fun ~verdict:_ ~decode_us:_ ~admit_us:_ w -> Engine.feed_raw_flat engine (Wire.to_raw w))
      ()
  in
  snd
    (measure (fun () ->
         let rec go () =
           match Framing.next reader with
           | Framing.Frame w ->
             Admission.push ~at_us:0. adm w;
             go ()
           | Framing.Crc_error | Framing.Bad_frame _ -> go ()
           | Framing.Truncated | Framing.Eof -> Admission.finish adm
         in
         go ()))
