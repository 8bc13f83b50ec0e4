(* The service-mixed workload: an [ocep serve] process started here,
   driven over loopback by one load-generator process (this one) with
   one thread and one connection per tenant.

   Tenant A streams the message-race case with the four race variants
   registered (they share one automaton node) and DETACHes and
   re-ATTACHes one of them at fixed stream positions; tenant B streams
   the ordering case at 50 traces (wide clocks). The two tenant names
   hash to different shards. The run has two phases: an open-loop phase
   at a fixed offered rate with a STATS probe per tenant at fixed
   intervals (ack latency is timed from when a probe was due), then a
   saturating phase whose first byte to last DRAIN is the throughput
   window. Each tenant's DRAIN digest must equal a dedicated in-process
   engine given the same edits at the same stream positions. *)

module Engine = Ocep.Engine
module Clock = Ocep_base.Clock
module Client = Ocep_service.Client
module Control = Ocep_service.Control
module Ocep_error = Ocep_base.Ocep_error

(* Offered rate of the open-loop phase, events/s over both tenants:
   about half the saturating throughput measured when the benchmark was
   written, so the backlog stays near empty. *)
let offered_rate = 130_000.

(* Per tenant. A STATS round trip on a connection that is also
   streaming takes ~40 ms: neither end sets TCP_NODELAY, so the request
   waits behind unacknowledged data for the server's delayed ACK.
   Probes closer than that would queue behind one another and time the
   generator rather than the system. *)
let probe_every_s = 0.05

type edit = Detach of string | Attach of string * string

type tenant = {
  name : string;
  s : Inputs.stream;
  patterns : (string * string) list;  (** attached at set-up, in order *)
  edits : (int * edit) list;  (** applied just before frame [pos] *)
  open_loop : int;  (** events sent in the open-loop phase *)
  data : string;  (** pre-framed bytes *)
  off : int array;
}

let race_variants =
  [
    ("race", "S1 := [_, MPI_Send, $d];\nS2 := [_, MPI_Send, $d];\npattern := S1 || S2;\n");
    ("resend", "S1 := [_, MPI_Send, $d];\nS2 := [_, MPI_Send, $d];\npattern := S1 -> S2;\n");
    ("ordered", "A := [_, MPI_Send, _];\nB := [_, MPI_Send, _];\npattern := A -> B;\n");
    ("self-conc", "S1 := [$p, MPI_Send, _];\nS2 := [$p, MPI_Send, _];\npattern := S1 || S2;\n");
  ]

(* First name of the form [prefix-k] whose shard (the server's
   [Hashtbl.hash name mod shards], with two shards) satisfies [ok]. *)
let pick_name prefix ok =
  let rec go k =
    let n = Printf.sprintf "%s-%d" prefix k in
    if ok (Hashtbl.hash n mod 2) then n else go (k + 1)
  in
  go 0

(* The open-loop phase lasts 7 s (140 probes per tenant); the saturating
   phase is a fixed 400K events per tenant, about 2.5 s at the
   throughput measured when the benchmark was written (~330K ev/s over
   both tenants on 2 cores). The rest of a run repeats the saturating
   phase. *)
let open_loop_s = 7.

let tenants ~seed =
  let per_tenant_open = int_of_float (offered_rate /. 2. *. open_loop_s) in
  let events = per_tenant_open + 400_000 in
  let a = Inputs.stream ~case:"races" ~traces:8 ~seed ~events in
  let b = Inputs.stream ~case:"ordering" ~traces:50 ~seed:(seed + 1) ~events in
  let name_a = "races" in
  let name_b = pick_name "ordering" (fun sh -> sh <> Hashtbl.hash name_a mod 2) in
  let mk name s patterns edits =
    let data, off = Inputs.framed s in
    { name; s; patterns; edits; open_loop = per_tenant_open; data; off }
  in
  let na = Array.length a.Inputs.raws in
  let ordered = List.assoc "ordered" race_variants in
  [|
    mk name_a a race_variants
      [ (na / 3, Detach "ordered"); (2 * na / 3, Attach ("ordered-again", ordered)) ];
    mk name_b b [ ("ordering", b.Inputs.pattern) ] [];
  |]

let events t = Array.length t.s.Inputs.raws

(* ------------------------------------------------------------------ *)
(* The dedicated-engine oracle                                         *)
(* ------------------------------------------------------------------ *)

(* The server's per-tenant engine config. *)
let engine_config = { Engine.default_config with Engine.latency_sink = Engine.Histogram }

type oracle = {
  digest : string;
  feed_s : float;  (** in-process direct feed, edits included *)
  register_us : float list;  (** [Engine.add_pattern] times *)
}

let oracle t =
  Stages.with_engine ~config:engine_config t.s.Inputs.names [] @@ fun engine ->
  let names = Hashtbl.create 8 in
  let register = ref [] in
  let add name src =
    let net = Stages.compile src in
    let t0 = Clock.now_us () in
    let h = Engine.add_pattern engine net in
    register := (Clock.now_us () -. t0) :: !register;
    Hashtbl.replace names name h
  in
  List.iter (fun (n, src) -> add n src) t.patterns;
  let raws = t.s.Inputs.raws in
  let pos = ref 0 in
  let feed_to p =
    for i = !pos to p - 1 do
      Engine.feed_raw_flat engine raws.(i)
    done;
    pos := max !pos p
  in
  let feed_s = ref 0. in
  let timed f =
    let t0 = Clock.now_s () in
    f ();
    feed_s := !feed_s +. (Clock.now_s () -. t0)
  in
  List.iter
    (fun (p, e) ->
      timed (fun () -> feed_to p);
      match e with
      | Detach n -> Engine.Handle.detach (Hashtbl.find names n)
      | Attach (n, src) -> add n src)
    t.edits;
  timed (fun () -> feed_to (Array.length raws));
  { digest = Engine.reports_digest engine; feed_s = !feed_s; register_us = List.rev !register }

(* ------------------------------------------------------------------ *)
(* The server process                                                  *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; out : in_channel; port : int; mport : int; err : string }

let live = ref []

(* Every server this process started is stopped and reaped, also when
   the run fails. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn exe =
  let err = Inputs.scratch "serve.err" in
  Inputs.created := err :: !Inputs.created;
  let err_fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let r, w = Unix.pipe ~cloexec:true () in
  (* v=0x400: the runtime prints its GC totals, all domains included,
     to stderr at exit — the server's allocation, read from outside *)
  let env =
    Array.append [| "OCAMLRUNPARAM=v=0x400" |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let argv =
    [| exe; "serve"; "--listen"; "127.0.0.1:0"; "--shards"; "2"; "--metrics-port"; "0" |]
  in
  let pid = Unix.create_process_env exe argv env Unix.stdin w err_fd in
  live := pid :: !live;
  Unix.close w;
  Unix.close err_fd;
  let out = Unix.in_channel_of_descr r in
  let port = ref 0 and mport = ref 0 in
  while !port = 0 || !mport = 0 do
    let line = input_line out in
    (try Scanf.sscanf line "ocep serve: listening on %_[^:]:%d " (fun p -> port := p)
     with Scanf.Scan_failure _ | End_of_file | Failure _ -> ());
    try Scanf.sscanf line "ocep serve: metrics on http://%_[^:]:%d/" (fun p -> mport := p)
    with Scanf.Scan_failure _ | End_of_file | Failure _ -> ()
  done;
  { pid; out; port = !port; mport = !mport; err }

let field_kb key path =
  In_channel.with_open_text path @@ fun ic ->
  let rec go () =
    match In_channel.input_line ic with
    | None -> failwith (key ^ " not found in " ^ path)
    | Some l when String.starts_with ~prefix:key l -> Scanf.sscanf l "%_s %d" Fun.id
    | Some _ -> go ()
  in
  go ()

let rss_bytes srv = field_kb "VmRSS:" (Printf.sprintf "/proc/%d/status" srv.pid) * 1024

(* SIGINT, wait for the clean exit, and return the server's lifetime
   allocation in bytes. *)
let stop srv =
  Unix.kill srv.pid Sys.sigint;
  (try
     while true do
       ignore (input_line srv.out)
     done
   with End_of_file -> ());
  close_in srv.out;
  let _, status = Unix.waitpid [] srv.pid in
  live := List.filter (( <> ) srv.pid) !live;
  if status <> Unix.WEXITED 0 then failwith "ocep serve did not exit cleanly";
  let words =
    In_channel.with_open_text srv.err @@ fun ic ->
    let rec go () =
      match In_channel.input_line ic with
      | None -> failwith "ocep serve printed no GC totals"
      | Some l -> (
        match Scanf.sscanf l "allocated_words: %f" Fun.id with
        | w -> w
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> go ())
    in
    go ()
  in
  words *. 8.

let shard_queue_depth_max srv =
  match Ocep_obs.Serve.http_get ~timeout_s:1. ~host:"127.0.0.1" ~port:srv.mport ~path:"/metrics" () with
  | 200, body ->
    List.fold_left
      (fun acc l ->
        if String.starts_with ~prefix:"ocep_shard_queue_depth{" l then
          match String.rindex_opt l ' ' with
          | Some i -> max acc (float_of_string (String.sub l (i + 1) (String.length l - i - 1)))
          | None -> acc
        else acc)
      0. (String.split_on_char '\n' body)
  | _ -> 0.

(* ------------------------------------------------------------------ *)
(* The load generator                                                  *)
(* ------------------------------------------------------------------ *)

(* Per-tenant counters; each is written by its tenant's thread only. *)
type load = {
  mutable sent : int;
  mutable controls : int;
  mutable control_errors : int;
  mutable acks : float list;  (** probe due → reply, µs *)
  mutable lags : float list;  (** paced send ran this late, ms *)
  mutable blocked_s : float;  (** inside send_encoded/flush, saturating phase *)
  mutable drain : Control.stats option;
  mutable done_s : float;
  mutable qdepth : float;
}

let new_load () =
  {
    sent = 0;
    controls = 0;
    control_errors = 0;
    acks = [];
    lags = [];
    blocked_s = 0.;
    drain = None;
    done_s = 0.;
    qdepth = 0.;
  }

let control ld f =
  ld.controls <- ld.controls + 1;
  match f () with Ok _ -> () | Error _ -> ld.control_errors <- ld.control_errors + 1

let connect srv t =
  match Client.connect ~host:"127.0.0.1" ~port:srv.port ~tenant:t.name ~traces:t.s.Inputs.names () with
  | Ok c -> c
  | Error e -> failwith ("connect: " ^ Ocep_error.to_string e)

let attach_all ld c t =
  List.iter (fun (name, source) -> control ld (fun () -> Client.attach c ~name ~source)) t.patterns

(* Send frames [ld.sent, upto), applying each edit just before its
   frame, in chunks of at most [chunk] frames. *)
let send_to ?(chunk = max_int) ld c t upto =
  let blocked f =
    let t0 = Clock.now_s () in
    f ();
    ld.blocked_s <- ld.blocked_s +. (Clock.now_s () -. t0)
  in
  while ld.sent < upto do
    let stop =
      List.fold_left
        (fun acc (p, _) -> if p > ld.sent && p < acc then p else acc)
        (if upto - ld.sent > chunk then ld.sent + chunk else upto)
        t.edits
    in
    let a = t.off.(ld.sent) and b = t.off.(stop) in
    blocked (fun () ->
        Client.send_encoded c (String.sub t.data a (b - a));
        Client.flush c);
    ld.sent <- stop;
    List.iter
      (fun (p, e) ->
        if p = stop then
          match e with
          | Detach n -> control ld (fun () -> Client.detach c ~pattern:n)
          | Attach (name, source) -> control ld (fun () -> Client.attach c ~name ~source))
      t.edits
  done

(* Open loop: frames are due at a fixed rate from [t0], and a STATS
   probe every [probe_every_s] (staggered between tenants); neither
   waits for the system, so a stall shows as lateness. *)
let open_loop ~srv ~trace ~t0 ~k ld c t =
  let rate = offered_rate /. 2. in
  let t_end = t0 +. (float_of_int t.open_loop /. rate) in
  let next_probe = ref (t0 +. (probe_every_s *. 0.5 *. float_of_int k)) in
  let next_scrape = ref t0 in
  while ld.sent < t.open_loop do
    let now = Clock.now_s () in
    let due = min t.open_loop (int_of_float ((now -. t0) *. rate)) in
    if due > ld.sent then begin
      ld.lags <- ((now -. (t0 +. (float_of_int ld.sent /. rate))) *. 1e3) :: ld.lags;
      send_to ld c t due
    end;
    if now >= !next_probe && !next_probe < t_end then begin
      let probe = !next_probe in
      control ld (fun () -> Client.stats c);
      let reply = Clock.now_s () in
      ld.acks <- ((reply -. probe) *. 1e6) :: ld.acks;
      if trace then
        Stages.span "stats" "client" ~ts_us:(probe *. 1e6) ~dur_us:((reply -. probe) *. 1e6);
      next_probe := probe +. probe_every_s
    end;
    if trace && k = 0 && now >= !next_scrape then begin
      ld.qdepth <- max ld.qdepth (shard_queue_depth_max srv);
      next_scrape := now +. 0.25
    end;
    Unix.sleepf 0.0005
  done

(* The saturating phase is cut into segments, each timed from its first
   byte until the server has matched it: a STATS reply ends every
   segment but the last, which ends with DRAIN. *)
let segments = 5

let saturate ~srv ~trace ~k ~j ld c t =
  let upto = t.open_loop + ((events t - t.open_loop) * (j + 1) / segments) in
  let next_scrape = ref 0. in
  while ld.sent < upto do
    send_to ~chunk:4096 ld c t (min upto (ld.sent + 65_536));
    if trace && k = 0 && Clock.now_s () >= !next_scrape then begin
      ld.qdepth <- max ld.qdepth (shard_queue_depth_max srv);
      next_scrape := Clock.now_s () +. 0.25
    end
  done;
  if j < segments - 1 then control ld (fun () -> Client.stats c)
  else begin
    ld.controls <- ld.controls + 1;
    match Client.drain c with
    | Ok st -> ld.drain <- Some st
    | Error _ -> ld.control_errors <- ld.control_errors + 1
  end;
  ld.done_s <- Clock.now_s ()

(* Run [f 0 .. f (n-1)] on their own threads; the first exception any
   of them raised is re-raised here once all have ended. *)
let in_threads f n =
  let err = Atomic.make None in
  let body k = try f k with e -> ignore (Atomic.compare_and_set err None (Some e)) in
  List.iter Thread.join (List.init n (Thread.create body));
  Option.iter raise (Atomic.get err)

(* ------------------------------------------------------------------ *)
(* One measured scenario                                               *)
(* ------------------------------------------------------------------ *)

type scenario = {
  setup_s : float list;  (** spawn → both tenants attached, one per server *)
  connect_ms : float list;
  idle_rtt_us : float list;
  loads : load array;
  open_s : float;
  segments_run : (int * float) list;  (** saturating segments: events, seconds *)
  rss : int;  (** server VmRSS after both DRAINs *)
  alloc : float;  (** server lifetime allocation, bytes *)
}

let setups = 7

(* A fresh server with both tenants connected and their patterns
   attached; also returns the set-up time and each connect's ms. *)
let start exe ts =
  let loads = Array.map (fun _ -> new_load ()) ts in
  let t0 = Clock.now_s () in
  let srv = spawn exe in
  let connect_ms = ref [] in
  let clients =
    Array.mapi
      (fun i t ->
        let c0 = Clock.now_s () in
        let c = connect srv t in
        connect_ms := ((Clock.now_s () -. c0) *. 1e3) :: !connect_ms;
        attach_all loads.(i) c t;
        c)
      ts
  in
  let setup_s = Clock.now_s () -. t0 in
  if Client.shard clients.(0) = Client.shard clients.(1) then failwith "tenants share a shard";
  (srv, clients, loads, setup_s, !connect_ms)

(* The saturating phase: its segments back to back, each one's events
   and seconds. *)
let saturating ~srv ~trace clients loads ts =
  let sent () = Array.fold_left (fun acc ld -> acc + ld.sent) 0 loads in
  List.init segments (fun j ->
      let s0 = Clock.now_s () and e0 = sent () in
      in_threads (fun k -> saturate ~srv ~trace ~k ~j loads.(k) clients.(k) ts.(k)) 2;
      let s1 = Array.fold_left (fun acc ld -> max acc ld.done_s) s0 loads in
      if trace then Stages.span "saturating" "client" ~ts_us:(s0 *. 1e6) ~dur_us:((s1 -. s0) *. 1e6);
      (sent () - e0, s1 -. s0))

let scenario ~exe ~trace ts =
  let setup_s = ref [] and connect_ms = ref [] in
  (* set-up is repeated on throwaway servers; the last one carries the load *)
  let rec setup k =
    let srv, clients, loads, dt, ms = start exe ts in
    setup_s := dt :: !setup_s;
    connect_ms := ms @ !connect_ms;
    if k = 1 then (srv, clients, loads)
    else begin
      Array.iter Client.close clients;
      ignore (stop srv);
      setup (k - 1)
    end
  in
  let srv, clients, loads = setup setups in
  Fun.protect ~finally:(fun () -> Array.iter Client.close clients) @@ fun () ->
  let idle_rtt_us =
    List.init (if trace then 10 else 0) (fun _ ->
        let t0 = Clock.now_s () in
        control loads.(0) (fun () -> Client.stats clients.(0));
        (Clock.now_s () -. t0) *. 1e6)
  in
  let t0 = Clock.now_s () +. 0.01 in
  in_threads (fun k -> open_loop ~srv ~trace ~t0 ~k loads.(k) clients.(k) ts.(k)) 2;
  let t1 = Clock.now_s () in
  let segments_run = saturating ~srv ~trace clients loads ts in
  let rss = rss_bytes srv in
  Array.iter Client.close clients;
  let alloc = stop srv in
  {
    setup_s = !setup_s;
    connect_ms = !connect_ms;
    idle_rtt_us;
    loads;
    open_s = t1 -. t0;
    segments_run;
    rss;
    alloc;
  }

(* The saturating phase again, on a fresh server. The open-loop prefix
   is sent as fast as the server takes it and matched (a STATS reply)
   before the first segment starts, so each segment does the same work
   as in [scenario]. Returns the loads (their DRAINs carry the digests)
   and the segments. *)
let saturating_again ~exe ts =
  let srv, clients, loads, _, _ = start exe ts in
  Fun.protect ~finally:(fun () -> Array.iter Client.close clients) @@ fun () ->
  in_threads
    (fun k ->
      send_to ~chunk:4096 loads.(k) clients.(k) ts.(k) ts.(k).open_loop;
      control loads.(k) (fun () -> Client.stats clients.(k)))
    2;
  let segments_run = saturating ~srv ~trace:false clients loads ts in
  Array.iter Client.close clients;
  ignore (stop srv);
  (loads, segments_run)
