module Compile = Ocep_pattern.Compile

let search ~pool ~net ~history ~n_traces ~trace_of_sym ~partner_of ~anchor_leaf ~anchor
    ?(node_budget = max_int) ?(stats = Matcher.new_stats ()) () =
  match Matcher.first_search_leaf ~net ~anchor_leaf with
  | None ->
    (* single-leaf pattern: nothing to parallelize *)
    Matcher.search ~net ~history ~n_traces ~trace_of_sym ~partner_of ~anchor_leaf ~anchor
      ~node_budget ~stats ()
  | Some level1_leaf ->
    (* one plan for the whole fan-out; immutable, shared by all workers *)
    let plan = Matcher.plan ~net ~anchor_leaf in
    let stop = Atomic.make false in
    (* one task per worker, each owning an interleaved slice of the traces:
       dispatch cost is paid per worker, not per trace *)
    let slices = min (Search_pool.workers pool) n_traces in
    let results =
      Search_pool.run pool ~n:slices (fun slice ->
          let task_stats = Matcher.new_stats () in
          let best = ref Matcher.Not_found in
          let t = ref slice in
          while !best = Matcher.Not_found && !t < n_traces && not (Atomic.get stop) do
            (match
               Matcher.search ~plan ~net ~history ~n_traces ~trace_of_sym ~partner_of
                 ~anchor_leaf ~anchor ~pin:(level1_leaf, !t) ~node_budget ~stats:task_stats ()
             with
            | Matcher.Found _ as f ->
              Atomic.set stop true;
              best := f
            | Matcher.Aborted -> best := Matcher.Aborted
            | Matcher.Not_found -> ());
            t := !t + slices
          done;
          (!best, task_stats))
    in
    stats.Matcher.searches <- stats.Matcher.searches + 1;
    Array.iter
      (fun (_, (s : Matcher.stats)) ->
        stats.Matcher.nodes <- stats.Matcher.nodes + s.Matcher.nodes;
        stats.Matcher.backjumps <- stats.Matcher.backjumps + s.Matcher.backjumps)
      results;
    let found = Array.find_opt (fun (o, _) -> match o with Matcher.Found _ -> true | _ -> false) results in
    (match found with
    | Some (o, _) -> o
    | None ->
      if Array.exists (fun (o, _) -> o = Matcher.Aborted) results then Matcher.Aborted
      else Matcher.Not_found)
