(* Seeded input generation. Everything here runs before any timer
   starts; the program under test only ever sees the generated raws,
   wire logs and pre-framed bytes. *)

module Sim = Ocep_sim.Sim
module Event = Ocep_base.Event
module Workload = Ocep_workloads.Workload
module Inject = Ocep_workloads.Inject
module Cases = Ocep_harness.Cases
module Wire = Ocep_ingest.Wire
module Framing = Ocep_ingest.Framing

type stream = {
  names : string array;
  pattern : string;
  raws : Event.raw array;
  seq : int array;  (** each event's 1-based position on its trace *)
}

let stream ~case ~traces ~seed ~events =
  let w = Cases.make case ~traces ~seed ~max_events:events in
  let names = Sim.trace_names w.Workload.sim_config in
  let acc = ref [] in
  ignore (Sim.run w.Workload.sim_config ~sink:(fun r -> acc := r :: !acc) ~bodies:w.Workload.bodies);
  let raws = Array.of_list (List.rev !acc) in
  let next = Array.make (Array.length names) 0 in
  let seq =
    Array.map
      (fun (r : Event.raw) ->
        next.(r.Event.r_trace) <- next.(r.Event.r_trace) + 1;
        next.(r.Event.r_trace))
      raws
  in
  { names; pattern = w.Workload.pattern; raws; seq }

let wire s i = Wire.of_raw ~id:i ~seq:s.seq.(i) s.raws.(i)

(* Scratch files live under [_ledger/] in the working directory (the
   checkout root), never in a system temp dir. *)
let scratch_dir = "_ledger"

let make_scratch_dir () = if not (Sys.file_exists scratch_dir) then Sys.mkdir scratch_dir 0o755

let scratch name =
  make_scratch_dir ();
  Filename.concat scratch_dir (Printf.sprintf "%d-%s" (Unix.getpid ()) name)

let created = ref []

let remove_scratch () =
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) !created;
  created := [];
  try Sys.rmdir scratch_dir with Sys_error _ -> ()

(* Write the stream as a wire log, frames in [order] (record ids, so a
   degraded order is a permutation with repeats). Returns the path. *)
let write_log ?(order = []) s name =
  let path = scratch name in
  created := path :: !created;
  let oc = open_out_bin path in
  let wr = Framing.create_writer oc ~trace_names:s.names in
  (match order with
  | [] -> Array.iteri (fun i _ -> Framing.write wr (wire s i)) s.raws
  | order -> List.iter (fun i -> Framing.write wr (wire s i)) order);
  Framing.flush wr;
  close_out oc;
  path

(* The CI fault smoke's degradation, seeded: reorder within blocks of 8,
   duplicate 1% of frames. Admission restores the exact record order. *)
let faults =
  match Inject.parse_faults "reorder:8,dup:0.01" with Ok f -> f | Error e -> failwith e

let degraded_order s ~seed = Inject.apply_faults faults ~seed (List.init (Array.length s.raws) Fun.id)

(* The stream pre-framed for [Client.send_encoded]: every frame's bytes
   (header excluded) in record order, and [off.(i)] the offset of frame
   [i] ([off.(n)] = total length). *)
let framed s =
  let path = write_log s "framed.wire" in
  let data = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  let n = Array.length s.raws in
  let off = Array.make (n + 1) 0 in
  let b = Buffer.create 64 in
  for i = 0 to n - 1 do
    Buffer.clear b;
    Wire.encode b (wire s i);
    off.(i + 1) <- off.(i) + 8 + Buffer.length b
  done;
  let body = String.length data - off.(n) in
  (String.sub data body off.(n), off)

let read_frames path =
  In_channel.with_open_bin path @@ fun ic ->
  let r = Framing.create_reader ic in
  let acc = ref [] in
  let rec go () =
    match Framing.next r with
    | Framing.Frame w ->
      acc := w :: !acc;
      go ()
    | Framing.Crc_error | Framing.Bad_frame _ -> go ()
    | Framing.Truncated | Framing.Eof -> ()
  in
  go ();
  Array.of_list (List.rev !acc)
