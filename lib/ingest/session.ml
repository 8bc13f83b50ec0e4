module Inject = Ocep_workloads.Inject

type config = {
  gap_policy : Admission.gap_policy;
  reorder_window : int;
  pipeline : bool;
  queue_capacity : int;
  queue_policy : Bqueue.policy;
  block_size : int;
  faults : Inject.faults;
  fault_seed : int;
}

let default =
  {
    gap_policy = Admission.default_config.Admission.gap_policy;
    reorder_window = Admission.default_config.Admission.reorder_window;
    pipeline = false;
    queue_capacity = 4096;
    queue_policy = Bqueue.Block;
    block_size = 1;
    faults = Inject.no_faults;
    fault_seed = 7;
  }

let replay_stream c ?tick ~engine reader =
  Source.replay_stream
    ~admission:{ Admission.reorder_window = c.reorder_window; gap_policy = c.gap_policy }
    ~pipeline:c.pipeline ~queue_capacity:c.queue_capacity ~queue_policy:c.queue_policy
    ~block_size:c.block_size ?tick ~engine reader

(* Degrading a transport needs the whole frame sequence; re-framing it
   into a temp file keeps the actual replay on the identical
   reader/admission code path as a pristine stream (rather than a
   special in-memory delivery loop that could mask framing bugs). *)
let degraded_copy ~faults ~seed reader =
  let frames = ref [] in
  let continue = ref true in
  while !continue do
    match Framing.next reader with
    | Framing.Frame w -> frames := w :: !frames
    | Framing.Crc_error | Framing.Bad_frame _ -> ()
    | Framing.Truncated | Framing.Eof -> continue := false
  done;
  let before = List.rev !frames in
  let after = Inject.apply_faults faults ~seed before in
  let tmp = Filename.temp_file "ocep_session" ".wire" in
  let oc = open_out_bin tmp in
  let wr = Framing.create_writer oc ~trace_names:(Framing.reader_trace_names reader) in
  List.iter (Framing.write wr) after;
  Framing.flush wr;
  close_out oc;
  (tmp, List.length before, List.length after)

let replay ?(config = default) ?tick ?log ~engine reader =
  if config.faults = Inject.no_faults then replay_stream config ?tick ~engine reader
  else begin
    let tmp, before, after =
      degraded_copy ~faults:config.faults ~seed:config.fault_seed reader
    in
    (match log with
    | Some log ->
      log
        (Format.asprintf "faults: %a (seed %d): %d frames -> %d" Inject.pp_faults
           config.faults config.fault_seed before after)
    | None -> ());
    Fun.protect
      ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
      (fun () ->
        let ic = open_in_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> replay_stream config ?tick ~engine (Framing.create_reader ic)))
  end
