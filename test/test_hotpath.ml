(* The hot-path overhaul's behavioral guarantees: (1) the interned
   integer-only fast path classifies and matches exactly like the
   string-keyed pattern semantics, on all four case-study workloads;
   (2) every built-in workload reproduces its golden per-pattern digest,
   sequentially and fanned out; (3) the pinned-search pre-filter skips
   real searches without changing any observable (coverage, reports,
   match counts), and its skip count is exported as
   ocep_pinned_skipped_total. *)

open Ocep_base
module Sim = Ocep_sim.Sim
module Poet = Ocep_poet.Poet
module Parser = Ocep_pattern.Parser
module Compile = Ocep_pattern.Compile
module Engine = Ocep.Engine
module Subset = Ocep.Subset
module Oracle = Ocep_baselines.Oracle
module Workload = Ocep_workloads.Workload
module Cases = Ocep_harness.Cases

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let net_of src = Compile.compile (Parser.parse src)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Observable engine state in a directly comparable shape (reports
   reduced to (seq, fresh, per-leaf (trace, index))). *)
let observe engine =
  let reports =
    List.map
      (fun (r : Subset.report) ->
        ( r.seq,
          r.fresh,
          Array.to_list (Array.map (fun (e : Event.t) -> (e.trace, e.index)) r.events) ))
      (Engine.reports engine)
  in
  ( Engine.matches_found engine,
    Engine.covered_slots engine,
    Engine.seen_slots engine,
    Engine.terminating_arrivals engine,
    reports )

(* ------------------------------------------------------------------ *)
(* Interned fast path == string-keyed semantics                        *)
(* ------------------------------------------------------------------ *)

(* On every event of a case-study run: each leaf's interned class-match
   must agree with the string-keyed one, the engine's history must hold
   exactly the class-matching (event, leaf) pairs (so the precomputed
   dispatch tables miss no candidate), and every report must re-verify
   against the string-keyed oracle. *)
let interned_equals_string_reference =
  QCheck.Test.make ~name:"interned engine = string-keyed reference on the 4 workloads" ~count:6
    QCheck.small_int (fun seed ->
      List.for_all
        (fun case ->
          (* ordering (Random_walk) needs cycle_len + 1 = 5 traces *)
          let w = Cases.make case ~traces:5 ~seed:(seed + 1) ~max_events:300 in
          let names = Sim.trace_names w.Workload.sim_config in
          let poet = Poet.create ~trace_names:names () in
          let net = net_of w.Workload.pattern in
          let config =
            { Engine.default_config with Engine.pruning = false; record_latency = false }
          in
          let engine = Engine.create ~config ~net ~poet () in
          Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
          let inet = Engine.interned_net engine in
          let k = Compile.size net in
          let mismatches = ref 0 and class_adds = ref 0 in
          (* the shared store holds one entry per matched *class*, not per
             matched leaf: leaves with equal class keys share storage *)
          let seen_keys = Hashtbl.create 8 in
          Poet.subscribe poet (fun ev ->
              Hashtbl.reset seen_keys;
              for i = 0 to k - 1 do
                let s = Compile.leaf_matches net i ev in
                if s <> Compile.leaf_matches_i inet i ev then incr mismatches;
                if s then begin
                  let key = Compile.class_key inet i in
                  if not (Hashtbl.mem seen_keys key) then begin
                    Hashtbl.replace seen_keys key ();
                    incr class_adds
                  end
                end
              done);
          ignore
            (Sim.run w.Workload.sim_config
               ~sink:(fun raw -> ignore (Poet.ingest poet raw))
               ~bodies:w.Workload.bodies);
          if !mismatches > 0 then
            QCheck.Test.fail_reportf "%d interned/string classification mismatches on %s"
              !mismatches case
          else if Engine.history_entries engine <> !class_adds then
            QCheck.Test.fail_reportf "history holds %d entries, classification says %d (%s)"
              (Engine.history_entries engine) !class_adds case
          else if
            not
              (List.for_all
                 (fun (r : Subset.report) -> Oracle.is_match ~net ~events:[] r.events)
                 (Engine.reports engine))
          then QCheck.Test.fail_reportf "a report fails the string-keyed oracle on %s" case
          else true)
        [ "deadlock"; "races"; "atomicity"; "ordering" ])

(* ------------------------------------------------------------------ *)
(* Pin filtering changes no observable                                 *)
(* ------------------------------------------------------------------ *)

let run_config ~config ~names ~net raws =
  let poet = Poet.create ~trace_names:names () in
  let engine = Engine.create ~config ~net ~poet () in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown engine)
    (fun () ->
      List.iter (fun r -> ignore (Poet.ingest poet r)) raws;
      (observe engine, Engine.pinned_skipped engine))

(* Without a node budget the filter is exact (DESIGN.md §4b): identical
   coverage, reports and match counts, never a dropped subset slot. *)
let filtering_changes_no_observable =
  QCheck.Test.make ~name:"pin filtering drops no slot and changes no observable" ~count:80
    QCheck.small_int (fun seed ->
      let prng = Prng.create (seed + 4242) in
      let n_traces = 2 + Prng.int prng 3 in
      let names = Array.init n_traces (fun i -> "P" ^ string_of_int i) in
      let raws = Testutil.Gen.computation ~n_traces ~length:(20 + Prng.int prng 40) prng in
      let src = Testutil.Gen.pattern ~n_classes:(2 + Prng.int prng 2) prng in
      match Compile.compile (Parser.parse src) with
      | exception Compile.Compile_error _ -> true
      | net ->
        let cfg f = { Engine.default_config with Engine.pin_filtering = f } in
        let on, _ = run_config ~config:(cfg true) ~names ~net raws in
        let off, skipped_off = run_config ~config:(cfg false) ~names ~net raws in
        if skipped_off <> 0 then QCheck.Test.fail_reportf "skips counted with filtering off"
        else if on <> off then
          QCheck.Test.fail_reportf "filtering changed an observable on pattern:@.%s" src
        else true)

(* A deterministic scenario where the filter provably fires: a lone
   concurrent A cannot precede the terminating B, so the anchored search
   fails exhaustively and the (A, P0) pin is skipped as subsumed. *)
let skip_fires_and_is_sound () =
  let names = [| "P0"; "P1" |] in
  let net = net_of "A := [_, A, _]; B := [_, B, _]; pattern := A -> B;" in
  let run filtering =
    let poet = Poet.create ~trace_names:names () in
    let engine =
      Engine.create ~config:{ Engine.default_config with Engine.pin_filtering = filtering } ~net
        ~poet ()
    in
    let internal tr ty =
      ignore (Poet.ingest poet { Event.r_trace = tr; r_etype = ty; r_text = ""; r_kind = Event.Internal })
    in
    internal 0 "A";
    internal 1 "B";
    (observe engine, Engine.pinned_skipped engine)
  in
  let on, skipped_on = run true in
  let off, skipped_off = run false in
  check "observables equal" true (on = off);
  check_int "no skips with filtering off" 0 skipped_off;
  check_int "the futile pin was skipped" 1 skipped_on

let skip_metric_exposed () =
  let names = [| "P0"; "P1" |] in
  let net = net_of "A := [_, A, _]; B := [_, B, _]; pattern := A -> B;" in
  let poet = Poet.create ~trace_names:names () in
  let engine = Engine.create ~net ~poet () in
  let internal tr ty =
    ignore (Poet.ingest poet { Event.r_trace = tr; r_etype = ty; r_text = ""; r_kind = Event.Internal })
  in
  internal 0 "A";
  internal 1 "B";
  Engine.sync_metrics engine;
  let prom = Ocep_obs.Snapshot.prometheus (Engine.metrics engine) in
  check "counter exported" true (contains prom "ocep_pinned_skipped_total");
  check "skip counted in exposition" true (contains prom "ocep_pinned_skipped_total 1")

(* ------------------------------------------------------------------ *)
(* Golden digests: every built-in workload, sequential and fanned out  *)
(* ------------------------------------------------------------------ *)

(* Per-pattern report digests for the four paper case studies and the
   four protocol cases (10 traces, seed 42, 3000 events), captured when
   the engine still had a boxed-record subscription beside the arena one
   and both produced these values. Each workload must reproduce its
   digest sequentially and with the search pool forced on for every
   pinned batch (4 workers, zero cut-over). *)
let golden_digests =
  [
    ("deadlock", "af7364e66a4ad4cd");
    ("races", "2e88b47e4944ce20");
    ("atomicity", "296167e781039e08");
    ("ordering", "708f88dda130bb3e");
    ("twopc", "b781a052d03c3ec4");
    ("election", "5da426edd8226e7d");
    ("gossip", "5cb811105ad24076");
    ("lockserver", "dc2f29678295fbc5");
  ]

let golden_digests_all_workloads () =
  Alcotest.(check (list string)) "every workload pinned" Cases.all_names
    (List.map fst golden_digests);
  List.iter
    (fun (case, golden) ->
      List.iter
        (fun parallelism ->
          let w = Cases.make case ~traces:10 ~seed:42 ~max_events:3000 in
          let poet = Poet.create ~trace_names:(Sim.trace_names w.Workload.sim_config) () in
          let config =
            {
              Engine.default_config with
              Engine.parallelism;
              record_latency = false;
              cutover_batch = 0;
              cutover_work = 0;
            }
          in
          let engine = Engine.create ~config ~net:(net_of w.Workload.pattern) ~poet () in
          Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
          ignore
            (Sim.run w.Workload.sim_config
               ~sink:(fun raw -> ignore (Poet.ingest poet raw))
               ~bodies:w.Workload.bodies);
          Alcotest.(check string)
            (Printf.sprintf "%s: workers=%d" case parallelism)
            golden
            (Ocep_harness.Runner.reports_digest engine))
        [ 1; 4 ])
    golden_digests

let () =
  Alcotest.run "hotpath"
    [
      ( "interning",
        [ QCheck_alcotest.to_alcotest interned_equals_string_reference ] );
      ( "golden digest",
        [
          Alcotest.test_case "all workloads, seq and parallel" `Quick
            golden_digests_all_workloads;
        ] );
      ( "pin filtering",
        [
          QCheck_alcotest.to_alcotest filtering_changes_no_observable;
          Alcotest.test_case "skip fires and is sound" `Quick skip_fires_and_is_sound;
          Alcotest.test_case "skip metric exposed" `Quick skip_metric_exposed;
        ] );
    ]
