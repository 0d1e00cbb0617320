(* The two study workloads.

   [study-llm] runs the eight LLM techniques and [study-tools] the four
   traditional tools, each sequentially through [Study.run_one] on one
   core.  The full study runs the tools through [Study.run_parallel
   ~jobs:2], but on a 2-vCPU shared host two workers measured the host's
   scheduler more than the program: throughput moved by 13-23% between
   runs of the same code.  So [run_parallel] runs only in a traced run,
   for the scheduler's figures; its rows are byte-identical to the
   sequential ones, which the rows gate checks.  Both draw
   a stratified sample of the study corpus: variant 0 of every domain,
   then variant 1 of every domain that has one, and so on, so any prefix
   covers the domains evenly.

   The corpus and the techniques' own seed are the study's (42, the
   default of [specrepair evaluate]); the workload seed orders the
   domains within each round of the sample.  Per-variant cost is
   heavy-tailed (a Multi-Round dialogue that never converges costs ~30x
   one that does): on a 2-vCPU shared VM a sample drawn afresh per seed moved
   throughput by 30-45% between seeds at these sizes.  A fixed sample
   keeps the work comparable while the order still changes which caches
   are warm when. *)

module S = Specrepair
module Study = S.Eval.Study
module Technique = S.Eval.Technique
module Generate = S.Benchmarks.Generate
module Domains = S.Benchmarks.Domains
module Json = S.Serve.Json
open Common

type kind = Llm | Tools

let techniques = function
  | Llm -> Technique.llm_based
  | Tools -> Technique.traditional

(* A run's size is fixed by --seconds at a nominal rate, so the same seed
   and duration always run the same rows on every commit. *)
let nominal_rows_per_s = function Llm -> 12. | Tools -> 35.

(* The jobs of the traced run's scheduler pass, as the full study uses. *)
let sched_jobs = 2

let study_seed = 42

let variant_count kind ~seconds =
  let rows = nominal_rows_per_s kind *. float_of_int seconds in
  max 1 (int_of_float (Float.round (rows /. float_of_int (List.length (techniques kind)))))

let shuffle ~seed xs =
  let rng = Random.State.make [| seed |] in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* [count] variants of the corpus derived with [seed], round by round;
   with [order], each round visits its domains in that seed's order. *)
let stratified ?order ~seed ~count () =
  let rec rounds r acc n =
    let domains = List.filter (fun (d : Domains.t) -> d.count > r) Domains.all in
    if n <= 0 || domains = [] then List.rev acc
    else
      (* which domains a partial last round takes does not depend on
         [order]: only the visiting order does *)
      let taken = List.filteri (fun i _ -> i < n) domains in
      let taken =
        match order with None -> taken | Some o -> shuffle ~seed:((o * 7919) + r) taken
      in
      let acc =
        List.fold_left (fun acc d -> Generate.variant_at ~seed d r :: acc) acc taken
      in
      rounds (r + 1) acc (n - List.length taken)
  in
  rounds 0 [] count

let domains_of (vs : Generate.variant list) =
  List.fold_left
    (fun acc (v : Generate.variant) ->
      if List.exists (fun (d : Domains.t) -> d.name = v.domain.name) acc then acc
      else v.domain :: acc)
    [] vs
  |> List.rev

(* Set-up: derive the corpus sample in the seed's order, then build the
   AUnit suites of its domains.  Returns the sample and the two durations
   in seconds. *)
let setup ~seed ~count =
  let t0 = Span.now_ms () in
  let vs = stratified ~order:seed ~seed:study_seed ~count () in
  let t1 = Span.now_ms () in
  List.iter (fun d -> ignore (Study.aunit_suite d)) (domains_of vs);
  let t2 = Span.now_ms () in
  (vs, (t1 -. t0) /. 1000., (t2 -. t1) /. 1000.)

(* {2 Passes} *)

type pass = { rows : Study.spec_result list; failed : int; wall_s : float }

(* Work for [ms] of wall time: CPU, short-lived allocation, and a sweep
   of a 32 MB buffer outside the OCaml heap, a working set larger than
   the caches.  The self-test injects it into every row to check that the
   metrics report a known regression at about its size, and that the
   program's cache footprint does not slow the speed probe sharing its
   core.  Nothing it allocates stays live: a larger major heap would
   change the program's own GC pacing, and so the size of the slowdown. *)
let burn_buffer = lazy (Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 22))

let burn ms =
  let b = Lazy.force burn_buffer in
  let n = Bigarray.Array1.dim b in
  let t0 = Span.now_ms () and i = ref 0 in
  while Span.now_ms () -. t0 < ms do
    for _ = 1 to 1024 do
      let cell = Sys.opaque_identity (ref (Bigarray.Array1.unsafe_get b !i + 1)) in
      Bigarray.Array1.unsafe_set b !i !cell;
      i := (!i + 4099) land (n - 1)
    done
  done

(* Each row's (start ms, wall ms): its time window, which run.py
   normalises with the speed samples of the core the row ran on.  With
   [~inject] > 0, each row is followed, inside its window, by [burn] for
   [inject] times the row's own wall time. *)
let sequential ?(inject = 0.) kind vs =
  let t0 = Span.now_ms () in
  let failed = ref 0 and windows = ref [] in
  let rows =
    List.concat_map
      (fun v ->
        List.filter_map
          (fun t ->
            let r0 = Span.now_ms () in
            let r = try Some (Study.run_one ~seed:study_seed t v) with _ -> None in
            if inject > 0. then burn ((Span.now_ms () -. r0) *. inject);
            windows := (r0, Span.now_ms () -. r0) :: !windows;
            if r = None then incr failed;
            r)
          (techniques kind))
      vs
  in
  ({ rows; failed = !failed; wall_s = (Span.now_ms () -. t0) /. 1000. }, List.rev !windows)

let csv_digest rows = Digest.to_hex (Digest.string (Study.to_csv ~timings:false rows))

(* The scheduler pass of a traced study-tools run: every row through
   [Study.run_parallel ~jobs:sched_jobs], in a fresh child so that the
   pass starts from the post-set-up state and leaves the parent's memo
   tables as they were.  Returns the rows' digest, the pass's wall time,
   the summed session time of its rows and the scheduler's stats, as a
   JSON object.  The child leaves the core the parent is pinned to: the
   workers get every core, as in the full study. *)
let scheduler_pass kind vs =
  in_child (fun () ->
      ignore (Speed.unpin (Unix.getpid ()));
      let t0 = Span.now_ms () in
      let stats = ref None in
      let rows =
        Study.run_parallel ~seed:study_seed ~jobs:sched_jobs ~techniques:(techniques kind)
          ~on_stats:(fun s -> stats := Some s)
          vs
      in
      let wall_s = (Span.now_ms () -. t0) /. 1000. in
      let stats =
        match !stats with
        | None -> []
        | Some (s : S.Eval.Scheduler.stats) ->
            [
              ("chunks_dispatched", int s.chunks_dispatched);
              ("chunks_completed", int s.chunks_completed);
              ("retries", int s.retries);
              ("workers_spawned", int s.workers_spawned);
              ("workers_lost", int s.workers_lost);
              ("heartbeat_kills", int s.heartbeat_kills);
            ]
      in
      obj
        ([
           ("csv_digest", str (csv_digest rows));
           ("jobs", int sched_jobs);
           ("wall_s", num wall_s);
           ("busy_ms", num (List.fold_left (fun acc (r : Study.spec_result) -> acc +. r.time_ms) 0. rows));
         ]
        @ stats))

(* {2 The traced pass}

   Every row runs in-process through [run_one] with a telemetry sink.
   The row span covers the call; its children are the technique's
   session time ([time_ms]) and the metrics that follow it (row wall
   minus [time_ms]), and the technique's children are the telemetry
   phase timers.  So a layer's self time is its span minus its
   children. *)

let phases telemetry =
  match Json.parse telemetry with
  | Ok j -> (
      match Json.member "phases" j with
      | Some (Json.Obj kvs) ->
          List.filter_map (fun (k, v) -> Option.map (fun ms -> (k, ms)) (Json.to_num v)) kvs
      | _ -> [])
  | Error _ -> []

let traced_row t (v : Generate.variant) =
  let key = v.id ^ "/" ^ Technique.name t in
  let line = ref "null" in
  let t0 = Span.now_ms () in
  let r = Study.run_one ~seed:study_seed ~telemetry:(fun l -> line := l) t v in
  let wall = Span.now_ms () -. t0 in
  let row =
    Span.record ~start_ms:t0 ~key "eval.row" wall
      ~attrs:
        [
          ("technique", str (Technique.name t));
          ("variant", str v.id);
          ("time_ms", num r.time_ms);
          ("telemetry", !line);
        ]
  in
  let tech = Span.record ~parent:row ~key "technique" r.time_ms in
  ignore (Span.record ~parent:row ~key "metrics" (wall -. r.time_ms));
  List.iter (fun (p, ms) -> ignore (Span.record ~parent:tech ~key p ms)) (phases !line);
  r

(* {2 Layer probes}

   Calls into single layers that no row output times: one mutation-space
   enumeration, one model proposal, one fault-localisation ranking, cold
   and warm oracle verdicts against a fresh analyzer solve, the three
   study metrics, and the frontend, each on the variant's faulty spec. *)

let probe (v : Generate.variant) =
  let key = v.id in
  let faulty = v.injected.S.Benchmarks.Fault.faulty in
  let span ?attrs name f = try ignore (Span.with_span ?attrs ~key name f) with _ -> () in
  span "alloy.check" (fun () ->
      ignore (Specrepair_alloy.Frontend.check ~file:key (S.Alloy.Pretty.source faulty)));
  (match S.Alloy.Typecheck.check_result faulty with
  | Error _ -> ()
  | Ok env ->
      span "mutation.enumerate"
        ~attrs:(fun n -> [ ("space_size", int n) ])
        (fun () -> List.length (S.Mutation.Mutate.all_mutations env faulty ~with_pool:true ()));
      span "llm.propose" (fun () ->
          S.Llm.Model.propose S.Llm.Model.gpt4
            ~rng:(S.Llm.Rng.create (Int64.of_int study_seed))
            ~hints:[] S.Llm.Model.no_guidance (Generate.to_task v));
      span "faultloc.rank" (fun () ->
          S.Faultloc.rank_by_tests env (Study.aunit_suite v.domain) ());
      let oracle = S.Analyzer.Oracle.create env in
      List.iter
        (fun c ->
          span "solver.verdict_cold" (fun () -> S.Analyzer.Oracle.command_verdict oracle env c);
          span "solver.verdict_warm" (fun () -> S.Analyzer.Oracle.command_verdict oracle env c);
          span "solver.analyzer_fresh" (fun () -> S.Analyzer.run_command env c))
        env.spec.commands);
  let gt = v.ground_truth in
  span "metrics.rep" (fun () ->
      S.Metrics.Rep.rep_score
        ~max_conflicts:S.Repair.Common.default_budget.max_conflicts
        ~ground_truth:gt ~candidate:faulty ());
  span "metrics.tm" (fun () ->
      S.Metrics.Bleu.token_match
        ~reference:(S.Alloy.Pretty.spec_to_string gt)
        ~candidate:(S.Alloy.Pretty.spec_to_string faulty));
  span "metrics.sm" (fun () -> S.Metrics.Tree_kernel.syntax_match gt faulty)

let probe_variants = 36

(* {2 The run} *)

let setup_reps = 3

(* The core the timed pass and every traced or overhead pass run on, so
   that run.py can normalise them with that one core's speed. *)
let core = 0

let overhead_pairs = 3

let pin_self () = Speed.pin ~core (Unix.getpid ())
let core_json pinned = if pinned then int core else "null"

let run kind ~seed ~seconds ~trace ~inject ~out =
  let count = variant_count kind ~seconds in
  (* the rows run in this process: pin it, and every child it forks, to
     one core *)
  set "pinned_core" (core_json (pin_self ()));
  (* set-up is paid [setup_reps] times, each from this fresh process's
     state: all but the last in forked children *)
  let timed_setup f =
    let t0 = Span.now_ms () in
    let r = f () in
    (r, [ t0; Span.now_ms () ])
  in
  let child_setups =
    List.init (setup_reps - 1) (fun _ ->
        timed_setup (fun () ->
            in_child (fun () ->
                let _, gen, aunit = setup ~seed ~count in
                Printf.sprintf "%.9f %.9f" gen aunit)
            |> fun s -> Scanf.sscanf s "%f %f" (fun g a -> (g, a))))
  in
  let (vs, gen, aunit), window = timed_setup (fun () -> setup ~seed ~count) in
  let setups = List.map fst child_setups @ [ (gen, aunit) ] in
  set "setup_windows" (list (list num) (List.map snd child_setups @ [ window ]));
  set "setup_s" (list num (List.map (fun (g, a) -> g +. a) setups));
  set "generate_s" (list num (List.map fst setups));
  set "aunit_s" (list num (List.map snd setups));
  set "variants" (int (List.length vs));
  set "domains" (int (List.length (domains_of vs)));
  if trace then begin
    (* Tracing overhead: untraced and traced sequential passes over the
       first quarter of the sample, alternated over [overhead_pairs]
       pairs, each in a fresh child from the post-set-up state and on
       [core].  run.py normalises each pass by that core's speed in its
       own window and takes the median over the pairs, so drift of the
       machine between passes cancels. *)
    let head = List.filteri (fun i _ -> i < max 1 (List.length vs / 4)) vs in
    let pass traced =
      in_child (fun () ->
          let pinned = pin_self () in
          let t0 = Span.now_ms () in
          if traced then
            List.iter
              (fun v -> List.iter (fun t -> try ignore (traced_row t v) with _ -> ()) (techniques kind))
              head
          else ignore (sequential kind head);
          obj
            [
              ("traced", string_of_bool traced);
              ("core", core_json pinned);
              ("window", list num [ t0; Span.now_ms () ]);
            ])
    in
    set "overhead_passes"
      (list Fun.id
         (List.concat
            (List.init overhead_pairs (fun i ->
                 let first = i mod 2 = 1 in
                 let a = pass first in
                 [ a; pass (not first) ]))));
    (* every row traced, for the per-layer figures and the rows gate *)
    let digest =
      in_child (fun () ->
          let rows =
            List.concat_map
              (fun v -> List.filter_map (fun t -> try Some (traced_row t v) with _ -> None) (techniques kind))
              vs
          in
          List.iteri (fun i v -> if i < probe_variants then probe v) vs;
          Span.write (Filename.concat out "spans.jsonl");
          csv_digest rows)
    in
    set "traced_csv_digest" (str digest);
    if kind = Tools then
      match scheduler_pass kind vs with
      | json -> set "scheduler" json
      | exception e -> prerr_endline ("specbench: scheduler pass failed: " ^ Printexc.to_string e)
  end;
  let t0 = Span.now_ms () in
  let p, windows = sequential ~inject kind vs in
  set "pass_window" (list num [ t0; Span.now_ms () ]);
  set "peak_rss_mb" (num (peak_rss_mb (Unix.getpid ())));
  write_file (Filename.concat out "rows.csv") (Study.to_csv ~timings:false p.rows);
  set "attempted" (int (List.length vs * List.length (techniques kind)));
  set "failed" (int p.failed);
  set "wall_s" (num p.wall_s);
  set "row_windows" (list (fun (t, w) -> list num [ t; w ]) windows)
