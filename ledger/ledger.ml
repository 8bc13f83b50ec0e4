(* The OCEP performance ledger: one program, three workloads, every
   end-to-end metric by name and unit, and (with --trace 1) a per-stage
   split of ns/event and B/event timed from outside the program.

     ledger.exe --workload races-direct|deadlock-wire|service-mixed
                --seed N --seconds S --trace 0|1 [--ocep PATH]

   Inputs are generated from the seed before any timer starts. Every run
   checks report digests and fails (exit 1) on a mismatch. The last line
   of stdout is one JSON object: correct, attempted, failed, metrics. *)

module Engine = Ocep.Engine
module Poet = Ocep_poet.Poet
module Clock = Ocep_base.Clock
module Framing = Ocep_ingest.Framing
module Admission = Ocep_ingest.Admission
module Source = Ocep_ingest.Source
module Matcher = Ocep.Matcher
module Control = Ocep_service.Control

let default_seed = 1

(* Report digests of the two in-process workloads at [default_seed],
   pinned when the benchmark was written. Any other seed is checked
   against an oracle built at set-up instead. *)
let pinned = [ ("races-direct", "a0a3fba634d31d89"); ("deadlock-wire", "ecb97b7a127e7bed") ]

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : (string * float * string) list;
  layers : (string * float) list;  (** per-layer values measured (trace runs) *)
  table : (string * float * float) list;  (** stage, ns/event, B/event *)
}

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("ledger: " ^ s); exit 1) fmt

(* Latency is gated as its median, refused (the run fails) unless ten
   samples lie beyond it. The third quartile and the highest percentile
   the sample supports are printed beside it, with the sample count,
   but not gated: on a shared host the tail moves with other tenants'
   load (and, over loopback, with TCP's delayed-ACK timer) more than
   with the program, too much to hold a bound. *)
let latency samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  let p50 =
    match Pct.quantile a 0.5 with
    | Some v -> v
    | None -> fail "latency_p50_us: %d samples cannot support it" n
  in
  let tail =
    List.filter_map
      (fun p -> Option.map (Printf.sprintf "p%g %.1f us" (100. *. p)) (Pct.quantile a p))
      [ 0.75; 0.9; 0.95; 0.99; 0.999 ]
  in
  Printf.printf "  latency over %d samples: p50 %.1f us%s\n" n p50
    (String.concat "" (List.map (( ^ ) ", ") tail));
  [ ("latency_p50_us", p50, "us") ]

let median l = Pct.median (Array.of_list l)

(* Repeat [f] until [budget_s] has passed (at least [min] times). *)
let repeat ~budget_s ~min f =
  let t0 = Clock.now_s () in
  let rec go k acc =
    if k >= min && Clock.now_s () -. t0 >= budget_s then List.rev acc else go (k + 1) (f () :: acc)
  in
  go 0 []

let check_digest ~what ~expected got =
  if got <> expected then begin
    Printf.printf "DIGEST MISMATCH %s: got %s, expected %s\n%!" what got expected;
    false
  end
  else true

(* ------------------------------------------------------------------ *)
(* Per-stage table (traced run of an in-process workload)               *)
(* ------------------------------------------------------------------ *)

(* Each stage pass is a slot: [step] runs it once more, [pick] returns
   its fastest run. The traced run calls every step of a workload in
   three interleaved rounds, so that a slow stretch of a shared machine
   falls on all stages alike rather than on one; interference only ever
   slows a pass down, so the fastest of three is the least disturbed. *)
let slot ~ns run =
  let got = ref [] in
  let step () = got := run () :: !got in
  let pick () = List.hd (List.sort (fun a b -> Float.compare (ns a) (ns b)) !got) in
  (step, pick)

let rounds steps =
  for _ = 1 to 3 do
    List.iter (fun step -> step ()) steps
  done

(* The engine-side layers of one stream: POET alone, the direct-feed
   engine, and the per-call split of that feed into terminating and
   other arrivals. Returns the slots' steps, and a function giving the
   stage costs (poet, dispatch, matcher, whole engine) and the layer
   metrics read off the engine once the rounds have run. *)
let engine_layers ?config ~names ~nets raws =
  let n = Array.length raws in
  let fn = float_of_int n in
  let ratio a b = if b > 0. then a /. b else 0. in
  let poet_step, poet =
    slot ~ns:(fun (c, _, _) -> Stages.ns_of c) (fun () ->
        Stages.traced "stage.poet" (fun () -> Stages.poet_pass names raws))
  in
  let engine_step, engine =
    slot ~ns:Stages.ns_of (fun () ->
        Stages.with_engine ?config names nets (fun e ->
            snd
              (Stages.measure (fun () ->
                   Stages.traced "stage.engine" (fun () -> Stages.feed e raws)))))
  in
  (* the split pass also reads the engine's counters, so no engine
     outlives its pass *)
  let split_step, split =
    slot
      ~ns:(fun ((sp : Stages.split), _, _) -> sp.Stages.term_ns +. sp.Stages.other_ns)
      (fun () ->
        Stages.with_engine ?config names nets @@ fun e ->
        let sp = Stages.traced "stage.engine.split" (fun () -> Stages.feed_split ~trace:true e raws) in
        let st = Engine.search_stats e in
        Engine.sync_metrics e;
        let counter name =
          List.fold_left
            (fun acc (it : Ocep_obs.Metrics.item) ->
              match it.Ocep_obs.Metrics.value with
              | Ocep_obs.Metrics.Counter v when it.Ocep_obs.Metrics.name = name -> float_of_int v
              | _ -> acc)
            0. (Ocep_obs.Metrics.items (Engine.metrics e))
        in
        let entries = float_of_int (Engine.history_entries e) in
        let pruned = counter "ocep_history_pruned_total" in
        let dropped = float_of_int (Engine.history_dropped e) in
        let term = Engine.terminating_arrivals e in
        let searches = float_of_int st.Matcher.searches in
        let skipped = float_of_int (Engine.pinned_skipped e) in
        ( { sp with Stages.term_us = [||] },
          term,
          [
            ("history.entries", entries);
            ("history.pruned_ratio", ratio pruned (pruned +. entries +. dropped));
            ("matcher.searches_per_terminating", ratio searches (float_of_int term));
            ("matcher.nodes_per_search", ratio (float_of_int st.Matcher.nodes) searches);
            ("matcher.backjumps_per_search", ratio (float_of_int st.Matcher.backjumps) searches);
            ("matcher.match_ratio", ratio (float_of_int (Engine.matches_found e)) searches);
            ("engine.pinned_skip_ratio", ratio skipped (skipped +. searches));
            ("matcher.aborted", float_of_int (Engine.aborted_searches e));
            ("subset.reports", float_of_int (List.length (Engine.reports e)));
            ("automaton.nodes", float_of_int (Engine.automaton_nodes e));
            ("automaton.shared_evals_per_event", float_of_int (Engine.automaton_shared_evals e) /. fn);
          ] ))
  in
  ( [ poet_step; engine_step; split_step ],
    fun () ->
      let pc, arena_b, vc_b = poet () and ec = engine () and sp, term, counters = split () in
      let floor = Lazy.force Stages.clock_floor_ns in
      let term_ns = sp.Stages.term_ns -. (floor *. float_of_int term) in
      let other_ns = sp.Stages.other_ns -. (floor *. float_of_int (n - term)) in
      let time_share = term_ns /. (term_ns +. other_ns) in
      let alloc_share = ratio sp.Stages.term_words (sp.Stages.term_words +. sp.Stages.other_words) in
      (* terminating calls carry their own events' POET share too *)
      let matcher =
        Stages.sub
          { Stages.ns = ec.Stages.ns *. time_share; bytes = ec.Stages.bytes *. alloc_share }
          (Stages.scale (float_of_int term /. fn) pc)
      in
      let dispatch = Stages.sub (Stages.sub ec matcher) pc in
      let other = n - term in
      let layers =
        [
          ("poet.ns_per_event", pc.Stages.ns /. fn);
          ("poet.alloc_bytes_per_event", pc.Stages.bytes /. fn);
          ("arena.bytes_per_event", float_of_int arena_b /. fn);
          ("vc_pool.bytes_per_event", float_of_int vc_b /. fn);
          ("engine.arrival_ns", ratio dispatch.Stages.ns (float_of_int other));
          ("engine.alloc_bytes_per_arrival", ratio dispatch.Stages.bytes (float_of_int other));
          ("engine.terminating_time_share", time_share);
        ]
        @ counters
      in
      (pc, dispatch, matcher, ec, layers) )

(* The wire-side layers of one log: framing alone, admission alone over
   the decoded frames, and framing + admission + engine composed from
   outside (what Session.replay does, minus its own glue). Steps and a
   finishing function, as {!engine_layers}. *)
let wire_layers ?config ~names ~nets path =
  let framing_step, framing =
    slot ~ns:(fun f -> Stages.ns_of f.Stages.f_cost) (fun () ->
        Stages.traced "stage.framing" (fun () -> Stages.framing_pass path))
  in
  let frames = Inputs.read_frames path in
  let admission_step, admission =
    slot ~ns:(fun (c, _) -> Stages.ns_of c) (fun () ->
        Stages.traced "stage.admission" (fun () ->
            Stages.admission_pass ~n_traces:(Array.length names) frames))
  in
  let composed_step, composed =
    slot ~ns:Stages.ns_of (fun () ->
        Stages.with_engine ?config names nets (fun e ->
            Stages.traced "stage.composed" (fun () -> Stages.composed_pass e path)))
  in
  ([ framing_step; admission_step; composed_step ], fun () ->
  let f = framing () and ac, ast = admission () and composed = composed () in
  let nf = float_of_int f.Stages.f_frames in
  let layers =
    [
      ("framing.ns_per_frame", f.Stages.f_cost.Stages.ns /. nf);
      ("framing.alloc_bytes_per_frame", f.Stages.f_cost.Stages.bytes /. nf);
      ("framing.bytes_per_frame", float_of_int f.Stages.f_bytes /. nf);
      ("framing.errors", float_of_int f.Stages.f_errors);
      ("admission.ns_per_frame", ac.Stages.ns /. nf);
      ("admission.alloc_bytes_per_frame", ac.Stages.bytes /. nf);
      ("admission.buffered_ratio", float_of_int ast.Admission.reordered /. nf);
      ("admission.max_depth", float_of_int ast.Admission.max_depth);
      ("admission.duplicates_dropped", float_of_int ast.Admission.duplicates);
    ]
  in
  (f.Stages.f_cost, ac, composed, layers))

let register_us ~names nets =
  Stages.with_engine names [] @@ fun e ->
  median
    (List.map
       (fun net ->
         let t0 = Clock.now_us () in
         ignore (Engine.add_pattern e net);
         Clock.now_us () -. t0)
       nets)

(* ------------------------------------------------------------------ *)
(* races-direct and deadlock-wire                                      *)
(* ------------------------------------------------------------------ *)

let gen_line what f =
  let t0 = Clock.now_s () in
  let r = f () in
  Printf.printf "  generated %s in %.2f s (outside all timers)\n%!" what (Clock.now_s () -. t0);
  r

(* Ten set-ups: parse/compile + Poet.create + Engine.create (+ opening
   the log and Framing.create_reader). Taken before every pass, so the
   reported median samples the whole run. *)
let setups ?log (s : Inputs.stream) =
  List.init 10 (fun _ ->
      let t0 = Clock.now_s () in
      let net = Stages.compile s.Inputs.pattern in
      let poet = Poet.create ~trace_names:s.Inputs.names () in
      let e = Engine.create ~net ~poet () in
      (match log with
      | Some p -> In_channel.with_open_bin p (fun ic -> ignore (Framing.create_reader ic))
      | None -> ());
      let dt = Clock.now_s () -. t0 in
      Engine.shutdown e;
      dt)

(* One whole-stream pass of an in-process workload. *)
type pass = {
  cost : Stages.cost;
  held : float;
  lat : float array;
  setup : float list;
  segs : float array;  (** ns of each segment of the stream, in stream order *)
}

let fastest passes =
  List.fold_left
    (fun a b -> if b.cost.Stages.ns < a.cost.Stages.ns then b else a)
    (List.hd passes) passes

(* Interference from other tenants of a shared host only ever slows a
   pass down, and it comes in stretches shorter than a pass. Every pass
   feeds the same stream in the same order from a freshly collected
   heap, so a segment of the stream does the same work in every pass;
   the fastest run of each segment is its least disturbed reading, and
   their sum is the stream's time, which gives events_per_s. Summing
   per segment needs only one quiet run of each segment, where the
   fastest whole pass needs one quiet pass. Latency samples are timed
   the same way (each terminating call, or each gap between replay
   ticks, is the same work in every pass), so the percentiles are taken
   over each sample's fastest run. Allocated and held bytes do not
   depend on speed; they are the median over passes. *)
let minima runs =
  let len = Array.length (List.hd runs) in
  if len = 0 || List.exists (fun a -> Array.length a <> len) runs then
    fail "runs split the stream into different segments";
  let best = Array.copy (List.hd runs) in
  List.iter (Array.iteri (fun b t -> if t < best.(b) then best.(b) <- t)) runs;
  best

let sum = Array.fold_left ( +. ) 0.

let inprocess_e2e ~n passes lat_passes =
  let fn = float_of_int n in
  let ev_s p = fn /. (p.cost.Stages.ns *. 1e-9) in
  let best = fn /. (sum (minima (List.map (fun p -> p.segs) passes)) *. 1e-9) in
  Printf.printf "  passes (ev/s): %s; fastest segments %.0f ev/s over %d segments\n"
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.0f" (ev_s p)) passes))
    best
    (Array.length (List.hd passes).segs);
  [
    ("events_per_s", best, "ev/s");
    ("alloc_bytes_per_event", median (List.map (fun p -> p.cost.Stages.bytes /. fn) passes), "B/ev");
    ("held_bytes_per_event", median (List.map (fun p -> p.held /. fn) passes), "B/ev");
  ]
  @ latency (Array.to_list (minima (List.map (fun p -> p.lat) lat_passes)))
  @ [ ("setup_s", median (List.concat_map (fun p -> p.setup) passes), "s") ]

let races_direct ~seed ~seconds ~trace =
  let s =
    gen_line "races, 8 traces" (fun () ->
        Inputs.stream ~case:"races" ~traces:8 ~seed ~events:500_000)
  in
  let n = Array.length s.Inputs.raws in
  let net = Stages.compile s.Inputs.pattern in
  let expected =
    if seed = default_seed then List.assoc "races-direct" pinned
    else
      (* an independent path: the same stream recorded and replayed *)
      let log = Inputs.write_log s "oracle.wire" in
      Stages.with_engine s.Inputs.names [ net ] (fun e ->
          ignore (Stages.replay e log);
          Engine.reports_digest e)
  in
  let ok = ref true in
  let check e = ok := check_digest ~what:"races-direct" ~expected (Engine.reports_digest e) && !ok in
  (* throughput and match latency alternate, so both sample the whole
     run; latency has passes of its own because timing every call costs
     two clock reads per event *)
  let both =
    repeat ~budget_s:(if trace then 0.6 *. seconds else seconds) ~min:3 (fun () ->
        let pass =
          let setup = setups s in
          let base = Stages.live_words () in
          let segs = Array.make (Stages.segments n) 0. in
          Stages.with_engine s.Inputs.names [ net ] @@ fun e ->
          let (), cost = Stages.measure (fun () -> Stages.feed_timed e s.Inputs.raws segs) in
          check e;
          { cost; held = Stages.held_bytes ~base_words:base e; lat = [||]; setup; segs }
        in
        let lat_pass =
          Stages.with_engine s.Inputs.names [ net ] @@ fun e ->
          let sp, cost = Stages.measure (fun () -> Stages.feed_split e s.Inputs.raws) in
          check e;
          { cost; held = 0.; lat = sp.Stages.term_us; setup = []; segs = [||] }
        in
        (pass, lat_pass))
  in
  let passes = List.map fst both and lat_passes = List.map snd both in
  let e2e = inprocess_e2e ~n passes lat_passes in
  let layers, table =
    if not trace then ([], [])
    else begin
      let untraced = (fastest passes).cost.Stages.ns in
      let total_step, total =
        slot ~ns:Stages.ns_of (fun () ->
            Stages.with_engine s.Inputs.names [ net ] (fun e ->
                snd
                  (Stages.measure (fun () ->
                       Stages.traced "traced.feed" (fun () ->
                           ignore (Stages.feed_split ~trace:true e s.Inputs.raws))))))
      in
      let steps, engine = engine_layers ~names:s.Inputs.names ~nets:[ net ] s.Inputs.raws in
      rounds (total_step :: steps);
      let total = total () and pc, dispatch, matcher, ec, layers = engine () in
      let row name c = let ns, b = Stages.per n c in (name, ns, b) in
      ( layers
        @ [
            ("automaton.register_us_per_pattern", register_us ~names:s.Inputs.names [ net ]);
            ("trace.overhead_ratio", total.Stages.ns /. untraced);
          ],
        [
          row "poet" pc;
          row "dispatch+history" dispatch;
          row "matcher" matcher;
          row "remainder" (Stages.sub total ec);
          row "total (traced)" total;
        ] )
    end
  in
  {
    correct = !ok;
    attempted = n * (List.length passes + List.length lat_passes);
    failed = 0;
    e2e;
    layers;
    table;
  }

let deadlock_wire ~seed ~seconds ~trace =
  let s, log =
    gen_line "deadlock, 20 traces, degraded wire log" (fun () ->
        let s = Inputs.stream ~case:"deadlock" ~traces:20 ~seed ~events:500_000 in
        (s, Inputs.write_log ~order:(Inputs.degraded_order s ~seed) s "deadlock.wire"))
  in
  let n = Array.length s.Inputs.raws in
  let net = Stages.compile s.Inputs.pattern in
  let expected =
    if seed = default_seed then List.assoc "deadlock-wire" pinned
    else
      Stages.with_engine s.Inputs.names [ net ] (fun e ->
          Stages.feed e s.Inputs.raws;
          Engine.reports_digest e)
  in
  let ok = ref true in
  let attempted = ref 0 and failed = ref 0 in
  let replay_pass ~trace =
    let setup = setups ~log s in
    let base = Stages.live_words () in
    Stages.with_engine s.Inputs.names [ net ] @@ fun e ->
    let ticks = Array.make ((n / 1024) + 64) 0. and k = ref 0 in
    let st, cost = Stages.measure (fun () -> Stages.replay ~lat:(ticks, k) ~trace e log) in
    ok := check_digest ~what:"deadlock-wire" ~expected (Engine.reports_digest e) && !ok;
    if st.Source.admission.Admission.admitted <> n then begin
      Printf.printf "deadlock-wire: admitted %d of %d\n" st.Source.admission.Admission.admitted n;
      ok := false
    end;
    attempted := !attempted + st.Source.frames;
    failed := !failed + Stages.failed_frames st;
    (* the replay's segments are the gaps between its ticks, and the
       rest of the pass after the last one *)
    let lat = Array.sub ticks 0 !k in
    let ticked = Array.fold_left (fun acc us -> acc +. (us *. 1e3)) 0. lat in
    let segs = Array.append (Array.map (fun us -> us *. 1e3) lat) [| cost.Stages.ns -. ticked |] in
    { cost; held = Stages.held_bytes ~base_words:base e; lat; setup; segs }
  in
  let passes =
    repeat ~budget_s:(if trace then 0.5 *. seconds else seconds) ~min:3 (fun () ->
        replay_pass ~trace:false)
  in
  let e2e = inprocess_e2e ~n passes passes in
  let layers, table =
    if not trace then ([], [])
    else begin
      let untraced = (fastest passes).cost.Stages.ns in
      let total_step, total = slot ~ns:Stages.ns_of (fun () -> (replay_pass ~trace:true).cost) in
      let wsteps, wire = wire_layers ~names:s.Inputs.names ~nets:[ net ] log in
      let esteps, engine = engine_layers ~names:s.Inputs.names ~nets:[ net ] s.Inputs.raws in
      rounds ((total_step :: wsteps) @ esteps);
      let total = total () and fc, ac, composed, wl = wire () in
      let pc, dispatch, matcher, ec, el = engine () in
      let glue = Stages.sub total composed in
      let row name c = let ns, b = Stages.per n c in (name, ns, b) in
      ( wl @ el
        @ [
            ("session.glue_ns_per_event", glue.Stages.ns /. float_of_int n);
            ("automaton.register_us_per_pattern", register_us ~names:s.Inputs.names [ net ]);
            ("trace.overhead_ratio", total.Stages.ns /. untraced);
          ],
        [
          row "framing" fc;
          row "admission" ac;
          row "session glue" glue;
          row "poet" pc;
          row "dispatch+history" dispatch;
          row "matcher" matcher;
          row "remainder" (Stages.sub composed (Stages.sum [ fc; ac; ec ]));
          row "total (traced)" total;
        ] )
    end
  in
  { correct = !ok; attempted = !attempted; failed = !failed; e2e; layers; table }

(* ------------------------------------------------------------------ *)
(* service-mixed                                                       *)
(* ------------------------------------------------------------------ *)

let service_mixed ~exe ~seed ~seconds ~trace =
  let module S = Service_mixed in
  let t_start = Clock.now_s () in
  let ts =
    gen_line "races (tenant A) and ordering, 50 traces (tenant B)" (fun () ->
        S.tenants ~seed)
  in
  let oracles = Array.map (fun t -> S.oracle t) ts in
  let ref_run = S.scenario ~exe ~trace:false ts in
  let sc = if trace then S.scenario ~exe ~trace:true ts else ref_run in
  (* the rest of the run repeats the saturating phase on fresh servers *)
  let again =
    if trace then []
    else
      repeat ~budget_s:(seconds -. (Clock.now_s () -. t_start)) ~min:2 (fun () ->
          S.saturating_again ~exe ts)
  in
  let ok = ref true in
  let attempted = ref 0 and failed = ref 0 in
  List.iter
    (fun loads ->
      Array.iteri
        (fun i (ld : S.load) ->
          let t = ts.(i) in
          attempted := !attempted + ld.S.sent + ld.S.controls;
          failed := !failed + ld.S.control_errors;
          match ld.S.drain with
          | None ->
            Printf.printf "service-mixed: tenant %s did not drain\n" t.S.name;
            ok := false
          | Some st ->
            failed := !failed + (ld.S.sent - st.Control.admitted);
            let what = "service-mixed tenant " ^ t.S.name in
            ok := check_digest ~what ~expected:oracles.(i).S.digest st.Control.digest && !ok)
        loads)
    ((if trace then [ ref_run.S.loads; sc.S.loads ] else [ sc.S.loads ]) @ List.map fst again);
  let total = Array.fold_left (fun acc t -> acc + S.events t) 0 ts in
  let fn = float_of_int total in
  (* first byte of the saturating phase to the last DRAIN; the segments
     are back to back *)
  let sat_events = List.fold_left (fun acc (e, _) -> acc + e) 0 sc.S.segments_run in
  let sat_s = List.fold_left (fun acc (_, t) -> acc +. t) 0. sc.S.segments_run in
  let ev_s = float_of_int sat_events /. sat_s in
  (* Every run of the saturating phase starts a fresh server at the
     same stream position, and each segment ends once the server has
     matched it, so a segment does the same work in every run: as in
     process, its fastest run is its least disturbed reading. *)
  let runs = sc.S.segments_run :: List.map snd again in
  if List.exists (fun r -> List.map fst r <> List.map fst sc.S.segments_run) runs then
    fail "saturating runs split the stream into different segments";
  let best_sat_s = sum (minima (List.map (fun r -> Array.of_list (List.map snd r)) runs)) in
  Array.iteri
    (fun i (ld : S.load) ->
      Printf.printf "  tenant %s: %d events, %d probes, median lag %.2f ms, in-process %.0f ev/s\n"
        ts.(i).S.name
        (S.events ts.(i)) (List.length ld.S.acks)
        (if ld.S.lags = [] then 0. else median ld.S.lags)
        (float_of_int (S.events ts.(i)) /. oracles.(i).S.feed_s))
    sc.S.loads;
  Printf.printf "  open loop %.2f s; saturating segments (ev/s), %d runs:\n" sc.S.open_s
    (List.length runs);
  List.iter
    (fun r ->
      Printf.printf "    %s\n"
        (String.concat " " (List.map (fun (e, t) -> Printf.sprintf "%.0f" (float_of_int e /. t)) r)))
    runs;
  Printf.printf "  fastest segments %.0f ev/s\n" (float_of_int sat_events /. best_sat_s);
  let e2e =
    [
      ("events_per_s", float_of_int sat_events /. best_sat_s, "ev/s");
      ("alloc_bytes_per_event", sc.S.alloc /. fn, "B/ev");
      ("held_bytes_per_event", float_of_int sc.S.rss /. fn, "B/ev");
    ]
    @ latency (List.concat_map (fun (ld : S.load) -> ld.S.acks) (Array.to_list sc.S.loads))
    @ [ ("setup_s", median sc.S.setup_s, "s") ]
  in
  let layers, table =
    if not trace then ([], [])
    else begin
      let inproc_s = Array.fold_left (fun acc (o : S.oracle) -> acc +. o.S.feed_s) 0. oracles in
      let lds = Array.to_list sc.S.loads in
      (* the engine and wire layers of both tenants' streams, in process *)
      let slots =
        Array.map
          (fun (t : S.tenant) ->
            let names = t.S.s.Inputs.names and raws = t.S.s.Inputs.raws in
            let nets = List.map (fun (_, src) -> Stages.compile src) t.S.patterns in
            let log = Inputs.write_log t.S.s (t.S.name ^ ".wire") in
            let wsteps, wire = wire_layers ~config:S.engine_config ~names ~nets log in
            let esteps, engine = engine_layers ~config:S.engine_config ~names ~nets raws in
            (wsteps @ esteps, wire, engine))
          ts
      in
      rounds (List.concat_map (fun (steps, _, _) -> steps) (Array.to_list slots));
      let parts =
        Array.map
          (fun (_, wire, engine) ->
            let fc, ac, _, wl = wire () and pc, dispatch, matcher, _, el = engine () in
            ([ fc; ac; pc; dispatch; matcher ], wl @ el))
          slots
      in
      (* tenant A's layer metrics (four patterns, one automaton node) *)
      let layers_a = snd parts.(0) in
      let stage i = Stages.sum (Array.to_list (Array.map (fun (cs, _) -> List.nth cs i) parts)) in
      let service_total =
        { Stages.ns = sat_s *. 1e9 /. float_of_int sat_events *. fn; bytes = sc.S.alloc }
      in
      let staged = List.init 5 stage in
      let row name c = let ns, b = Stages.per total c in (name, ns, b) in
      ( layers_a
        @ [
            ("automaton.register_us_per_pattern", median oracles.(0).S.register_us);
            ("client.connect_ms", median sc.S.connect_ms);
            ("control.rtt_idle_us", median sc.S.idle_rtt_us);
            ( "client.send_blocked_ratio",
              median (List.map (fun (ld : S.load) -> ld.S.blocked_s /. sat_s) lds) );
            ( "service.shard_queue_depth_max",
              List.fold_left (fun acc (ld : S.load) -> max acc ld.S.qdepth) 0. lds );
            ( "service.shed_frames",
              float_of_int
                (List.fold_left
                   (fun acc (ld : S.load) ->
                     acc + match ld.S.drain with Some st -> st.Control.shed | None -> 0)
                   0 lds) );
            ("service.inprocess_ratio", fn /. inproc_s /. ev_s);
            ("generator.lag_ms", median (List.concat_map (fun (ld : S.load) -> ld.S.lags) lds));
            ( "trace.overhead_ratio",
              sat_s /. List.fold_left (fun acc (_, t) -> acc +. t) 0. ref_run.S.segments_run );
          ],
        [
          row "framing (in-process)" (List.nth staged 0);
          row "admission (in-process)" (List.nth staged 1);
          row "poet (in-process)" (List.nth staged 2);
          row "dispatch+history (in-process)" (List.nth staged 3);
          row "matcher (in-process)" (List.nth staged 4);
          row "remainder: service (socket, routing, queueing)"
            (Stages.sub service_total (Stages.sum staged));
          row "total (server wall / server alloc)" service_total;
        ] )
    end
  in
  { correct = !ok; attempted = !attempted; failed = !failed; e2e; layers; table }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

(* Every per-layer metric, with its unit. A layer a workload does not
   exercise reads 0. *)
let layer_units =
  [
    ("framing.ns_per_frame", "ns");
    ("framing.alloc_bytes_per_frame", "B");
    ("framing.bytes_per_frame", "B");
    ("framing.errors", "count");
    ("admission.ns_per_frame", "ns");
    ("admission.alloc_bytes_per_frame", "B");
    ("admission.buffered_ratio", "ratio");
    ("admission.max_depth", "count");
    ("admission.duplicates_dropped", "count");
    ("session.glue_ns_per_event", "ns");
    ("poet.ns_per_event", "ns");
    ("poet.alloc_bytes_per_event", "B");
    ("arena.bytes_per_event", "B");
    ("vc_pool.bytes_per_event", "B");
    ("engine.arrival_ns", "ns");
    ("engine.alloc_bytes_per_arrival", "B");
    ("history.entries", "count");
    ("history.pruned_ratio", "ratio");
    ("engine.terminating_time_share", "ratio");
    ("matcher.searches_per_terminating", "ratio");
    ("matcher.nodes_per_search", "ratio");
    ("matcher.backjumps_per_search", "ratio");
    ("matcher.match_ratio", "ratio");
    ("engine.pinned_skip_ratio", "ratio");
    ("matcher.aborted", "count");
    ("subset.reports", "count");
    ("automaton.register_us_per_pattern", "us");
    ("automaton.nodes", "count");
    ("automaton.shared_evals_per_event", "ratio");
    ("client.connect_ms", "ms");
    ("control.rtt_idle_us", "us");
    ("client.send_blocked_ratio", "ratio");
    ("service.shard_queue_depth_max", "count");
    ("service.shed_frames", "count");
    ("service.inprocess_ratio", "ratio");
    ("generator.lag_ms", "ms");
    ("trace.overhead_ratio", "ratio");
  ]

let stage_keys =
  [ ("framing", [ "framing" ]); ("admission", [ "admission" ]); ("session", [ "session glue" ]);
    ("poet", [ "poet" ]); ("dispatch", [ "dispatch+history" ]); ("matcher", [ "matcher" ]);
    ("remainder", [ "remainder" ]); ("total", [ "total" ]) ]

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result (o : outcome) ~trace =
  let metrics =
    if not trace then List.map (fun (name, v, u) -> (name, v, u)) o.e2e
    else
      let layer name = Option.value ~default:0. (List.assoc_opt name o.layers) in
      (* stage rows are matched by their leading word *)
      let stage key field =
        let prefixes = List.assoc key stage_keys in
        List.fold_left
          (fun acc (row, ns, b) ->
            if List.exists (fun p -> String.starts_with ~prefix:p row) prefixes then
              acc +. if field = `Ns then ns else b
            else acc)
          0. o.table
      in
      List.map (fun (name, u) -> (name, layer name, u)) layer_units
      @ List.concat_map
          (fun (key, _) ->
            [
              (Printf.sprintf "stage.%s.ns_per_event" key, stage key `Ns, "ns");
              (Printf.sprintf "stage.%s.bytes_per_event" key, stage key `B, "B");
            ])
          stage_keys
  in
  if trace then begin
    let _, tns, tb = List.find (fun (r, _, _) -> String.starts_with ~prefix:"total" r) o.table in
    Printf.printf "\n  %-48s %12s %7s %12s %7s\n" "stage" "ns/event" "share" "B/event" "share";
    List.iter
      (fun (r, ns, b) ->
        Printf.printf "  %-48s %12.1f %6.1f%% %12.1f %6.1f%%\n" r ns (100. *. ns /. tns) b
          (if tb <> 0. then 100. *. b /. tb else 0.))
      o.table;
    print_newline ();
    List.iter (fun (name, v, u) -> Printf.printf "  %-40s %16.4f %s\n" name v u) metrics
  end
  else List.iter (fun (name, v, u) -> Printf.printf "  %-40s %16.4f %s\n" name v u) metrics;
  Printf.printf "  attempted %d, failed %d, digests %s\n" o.attempted o.failed
    (if o.correct then "match" else "MISMATCH");
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" o.correct
    o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun (name, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) u)
          metrics))

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10 and trace = ref 0 in
  let exe = ref "_build/default/bin/ocep_cli.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "races-direct | deadlock-wire | service-mixed");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
      ("--ocep", Arg.Set_string exe, "PATH the ocep executable (service-mixed)");
    ]
    (fun a -> raise (Arg.Bad a))
    "ledger.exe --workload W --seed N --seconds S --trace 0|1";
  let seconds = float_of_int !seconds and trace = !trace = 1 in
  Printf.printf "ledger: %s, seed %d, %.0f s, trace %b\n%!" !workload !seed seconds trace;
  let run () =
    match !workload with
    | "races-direct" -> races_direct ~seed:!seed ~seconds ~trace
    | "deadlock-wire" -> deadlock_wire ~seed:!seed ~seconds ~trace
    | "service-mixed" -> service_mixed ~exe:!exe ~seed:!seed ~seconds ~trace
    | w -> fail "unknown workload %S" w
  in
  at_exit Inputs.remove_scratch;
  let o = run () in
  if trace then begin
    Inputs.make_scratch_dir ();
    let path = Printf.sprintf "%s/%s.trace.json" Inputs.scratch_dir !workload in
    Out_channel.with_open_text path (fun oc -> Ocep_obs.Tracer.dump oc Stages.tracer);
    Printf.printf "  spans: %s (%d recorded)\n" path (Ocep_obs.Tracer.recorded Stages.tracer)
  end;
  print_result o ~trace;
  if not o.correct then exit 1
