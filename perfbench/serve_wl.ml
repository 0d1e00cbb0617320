(* The serve-mixed workload: a [specrepair serve] daemon (2 workers,
   default admission limits) under an open loop.

   One load-generator process sends a seeded deck over at most two
   pipelined connections at Poisson arrival times, and times every
   request from its scheduled send time, so a stall also charges the
   requests queued behind it.  The deck mixes a hot set of corpus specs
   that fits the registry LRU (reads), a cold stream of specs sent once
   each (writes: frontend, oracle build and translation), a few small
   sat requests, and malformed lines with known error codes.  It has no
   multi-round or portfolio requests and no deadlines, so the LLM layer
   stays idle and every reply is deterministic. *)

module S = Specrepair
module Json = S.Serve.Json
open Common

(* Offered load and the latency limit a reply must meet to count as
   goodput; both are recorded in BENCHMARK.json. *)
let rate_per_s = 60.
let slo_ms = 500.
let connections = 2
let hot_specs = 12
let drain_timeout_ms = 30_000.

type request = {
  idx : int;
  line : string;
  kind : string;  (** e.g. "evaluate.hot", "repair_atr.cold", "error.spec" *)
  expect : string;  (** "ok" or the expected error code *)
  meth : string;  (** the method the daemon's status counts it under *)
  due_ms : float;  (** scheduled send time, from the start of the run *)
}

(* {2 The deck} *)

let request_line ~id meth params =
  Json.to_string (Json.Obj [ ("id", Json.Str id); ("method", Json.Str meth); ("params", Json.Obj params) ])

(* Printed corpus specs the frontend accepts, distinct by text and from
   [avoid]. *)
let corpus ?(avoid = []) ~seed ~count () =
  let seen = Hashtbl.create 64 in
  List.iter (fun (_, src) -> Hashtbl.replace seen src ()) avoid;
  Study_wl.stratified ~seed ~count ()
  |> List.filter_map (fun (v : S.Benchmarks.Generate.variant) ->
         let src = S.Alloy.Pretty.source v.injected.S.Benchmarks.Fault.faulty in
         if Hashtbl.mem seen src then None
         else begin
           Hashtbl.replace seen src ();
           match Specrepair_alloy.Frontend.check ~file:v.id src with
           | Ok _ -> Some (v.id, src)
           | Error _ -> None
         end)

(* A small random 3-CNF in DIMACS. *)
let cnf rng =
  let vars = 12 and clauses = 40 in
  let lit () = (1 + Random.State.int rng vars) * if Random.State.bool rng then 1 else -1 in
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "p cnf %d %d\n" vars clauses);
  for _ = 1 to clauses do
    Buffer.add_string b (Printf.sprintf "%d %d %d 0\n" (lit ()) (lit ()) (lit ()))
  done;
  Buffer.contents b

(* The deck is a fixed multiset of requests; the seed draws their order
   and the Poisson arrival times.  The hot set is variant 0 of the first
   domains of the study corpus; every hot spec gets evaluate, BeAFix and
   ATR requests in the ratio 1 : 2 : 16, and they fill the deck up to
   exactly [rate_per_s] x [seconds] requests.  Cold specs are the next
   variants of the corpus, sent once each, half as evaluate and half as
   ATR repairs: a cold BeAFix repair has a heavy tail (one spec in ~100
   took 10.6 s in-process), which stalls its sticky worker long enough at
   this rate to overflow admission control, and the open loop is meant to
   run below capacity.  On a 2-vCPU shared VM a deck drawn afresh per
   seed moved p99 by a factor of two between seeds, through how often the
   slowest hot spec happened to be drawn.

   Before the open loop starts, a closed-loop warm-up sends each hot spec
   one request of each kind, so the hot set is served warm as it would be
   in steady state; otherwise the first second's burst of cold hot-set
   requests set p99.  The warm-up is part of set-up time.

   The shares are chosen, not measured: the project has no production
   traffic to draw them from.  They make repairs the bulk of the work,
   as a repair service's would be, keep the hot set inside the registry
   LRU, and send enough cold specs, sat requests and malformed lines that
   each kind has a latency figure of its own.  They also put the median
   inside the warm ATR replies: the requests faster than those (errors,
   sat, evaluate) are about as many as the slower ones (BeAFix, cold
   ATR).  With evaluate : BeAFix : ATR at 4 : 1 : 8 the median fell in
   the gap between the sub-millisecond replies and the ATR ones, where a
   few percent more or fewer queued replies moved it by 10-30% between
   runs of the same code. *)
let deck ~seed ~seconds =
  let n = int_of_float (rate_per_s *. float_of_int seconds) in
  let share f = max 1 (int_of_float (Float.round (f *. float_of_int n))) in
  let hot = Array.of_list (corpus ~seed:Study_wl.study_seed ~count:hot_specs ()) in
  let n_cold = share 0.06 in
  let cold =
    corpus ~avoid:(Array.to_list hot) ~seed:Study_wl.study_seed ~count:(hot_specs + n_cold + 24) ()
    |> List.filteri (fun i _ -> i < n_cold)
  in
  let cnfs = Array.init 4 (fun i -> cnf (Random.State.make [| Study_wl.study_seed; i |])) in
  let repeat k x = List.init k (fun _ -> x) in
  (* each item builds its request line from the id it is given *)
  let spec_item ~temp meth ?tool (name, src) =
    let file = [ ("source", Json.Str src); ("file", Json.Str (name ^ ".als")) ] in
    match tool with
    | None -> ("evaluate." ^ temp, "evaluate", "ok", fun id -> request_line ~id meth file)
    | Some tool ->
        ( Printf.sprintf "repair_%s.%s" tool temp,
          "repair",
          "ok",
          fun id -> request_line ~id "repair" (("tool", Json.Str tool) :: file) )
  in
  let fixed =
    repeat (share 0.01) ("error.parse", "invalid", "parse_error", fun id -> "not a json request " ^ id)
    @ repeat (share 0.01)
        ( "error.unknown_method",
          "invalid",
          "unknown_method",
          fun id -> request_line ~id "frobnicate" [ ("source", Json.Str "sig A {}") ] )
    @ repeat (share 0.01)
        ( "error.spec",
          "evaluate",
          "spec_error",
          fun id -> request_line ~id "evaluate" [ ("source", Json.Str "sig A { f: Missing }") ] )
    @ List.concat_map
        (fun c -> repeat (share 0.005) ("sat", "sat", "ok", fun id -> request_line ~id "sat" [ ("dimacs", Json.Str c) ]))
        (Array.to_list cnfs)
    @ List.mapi
        (fun i spec ->
          if i mod 2 = 0 then spec_item ~temp:"cold" "evaluate" spec
          else spec_item ~temp:"cold" "repair" ~tool:"atr" spec)
        cold
  in
  (* the hot requests fill the rest of the deck, to exactly [n] requests
     so that the offered rate is [rate_per_s]: whole 1 : 2 : 16 blocks per
     spec, then single requests spec by spec in that ratio *)
  let budget = max 0 (n - List.length fixed) in
  let per_hot = budget / (19 * Array.length hot) in
  let hot_items =
    List.concat_map
      (fun spec ->
        repeat per_hot (spec_item ~temp:"hot" "evaluate" spec)
        @ repeat (2 * per_hot) (spec_item ~temp:"hot" "repair" ~tool:"beafix" spec)
        @ repeat (16 * per_hot) (spec_item ~temp:"hot" "repair" ~tool:"atr" spec))
      (Array.to_list hot)
  in
  let cycle = "AAAAEAAAAAABAAAAAAB" in
  let top_up =
    List.init
      (budget - List.length hot_items)
      (fun i ->
        let spec = hot.(i mod Array.length hot) in
        match cycle.[i / Array.length hot mod String.length cycle] with
        | 'E' -> spec_item ~temp:"hot" "evaluate" spec
        | 'B' -> spec_item ~temp:"hot" "repair" ~tool:"beafix" spec
        | _ -> spec_item ~temp:"hot" "repair" ~tool:"atr" spec)
  in
  let warmup =
    List.concat_map
      (fun spec ->
        [
          spec_item ~temp:"hot" "repair" ~tool:"beafix" spec;
          spec_item ~temp:"hot" "repair" ~tool:"atr" spec;
          spec_item ~temp:"hot" "evaluate" spec;
        ])
      (Array.to_list hot)
    |> List.mapi (fun idx (kind, meth, expect, line) ->
           { idx; line = line (Printf.sprintf "w%d" idx); kind; expect; meth; due_ms = 0. })
  in
  let items = Array.of_list (Study_wl.shuffle ~seed (fixed @ hot_items @ top_up)) in
  (* Poisson arrivals conditioned on their count: exponential gaps scaled
     so that the schedule spans exactly [seconds] *)
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let gaps = Array.init (Array.length items + 1) (fun _ -> -.log (1. -. Random.State.float rng 1.)) in
  let scale = float_of_int seconds *. 1000. /. Array.fold_left ( +. ) 0. gaps in
  let due = ref 0. in
  ( warmup,
    List.mapi
      (fun idx (kind, meth, expect, line) ->
        due := !due +. (gaps.(idx) *. scale);
        { idx; line = line (Printf.sprintf "r%d" idx); kind; expect; meth; due_ms = !due })
      (Array.to_list items) )

(* {2 The daemon} *)

type daemon = { pid : int; out : Unix.file_descr; ready_s : float }

(* Fork a daemon and wait for its "listening" line; fork-to-ready is the
   serve workload's set-up time. *)
let start_daemon ~socket ~telemetry =
  flush_all ();
  let r, w = Unix.pipe () in
  let t0 = Span.now_ms () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      Unix.dup2 w Unix.stdout;
      Unix.close w;
      (match
         S.Serve.Daemon.run
           { S.Serve.Daemon.default_config with socket = Some socket; workers = 2; telemetry }
       with
      | () -> Unix._exit 0
      | exception e ->
          prerr_endline ("specbench: daemon failed: " ^ Printexc.to_string e);
          Unix._exit 2)
  | pid ->
      Unix.close w;
      let buf = Bytes.create 256 in
      let seen = Buffer.create 64 in
      let rec await () =
        if not (String.contains (Buffer.contents seen) '\n') then
          match Unix.read r buf 0 (Bytes.length buf) with
          | 0 -> failwith "specbench: the daemon exited before it was ready"
          | k ->
              Buffer.add_subbytes seen buf 0 k;
              await ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> await ()
      in
      await ();
      { pid; out = r; ready_s = (Span.now_ms () -. t0) /. 1000. }

let stop_daemon d =
  Unix.kill d.pid Sys.sigterm;
  let status = snd (Unix.waitpid [] d.pid) in
  ignore (read_all d.out);
  Unix.close d.out;
  status = Unix.WEXITED 0

(* {2 The open-loop load generator} *)

type outcome = {
  sent_ms : float;  (** actual send time, from the start of the run *)
  mutable reply : string option;
  mutable latency_ms : float;  (** reply time minus scheduled send time *)
}

let reply_id line =
  match Json.parse line with Ok j -> Option.value (Json.mem_str "id" j) ~default:"" | Error _ -> ""

let load ~socket (reqs : request list) =
  let conns =
    Array.init connections (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket);
        fd)
  in
  let bufs = Array.init connections (fun _ -> Buffer.create 4096) in
  let reqs = Array.of_list reqs in
  let n = Array.length reqs in
  let outcomes = Array.make n None in
  let by_id = Hashtbl.create n in
  (* replies to lines with no recoverable id come back with id "":
     match them first-in first-out per connection *)
  let anonymous = Array.init connections (fun _ -> Queue.create ()) in
  let pending = ref 0 and next = ref 0 in
  let chunk = Bytes.create 65536 in
  let t0 = Span.now_ms () in
  let now () = Span.now_ms () -. t0 in
  let deliver c line =
    let t = now () in
    let slot =
      match reply_id line with
      | "" -> Queue.take_opt anonymous.(c)
      | id -> Hashtbl.find_opt by_id id
    in
    match slot with
    | Some i -> (
        match outcomes.(i) with
        | Some o when o.reply = None ->
            o.reply <- Some line;
            o.latency_ms <- t -. reqs.(i).due_ms;
            decr pending
        | _ -> ())
    | None -> ()
  in
  let read_conn c =
    match Unix.read conns.(c) chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k ->
        Buffer.add_subbytes bufs.(c) chunk 0 k;
        let text = Buffer.contents bufs.(c) in
        let lines = String.split_on_char '\n' text in
        let rec go = function
          | [ rest ] ->
              Buffer.clear bufs.(c);
              Buffer.add_string bufs.(c) rest
          | l :: tl ->
              deliver c l;
              go tl
          | [] -> ()
        in
        go lines
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let last_due = if n = 0 then 0. else reqs.(n - 1).due_ms in
  while (!next < n || !pending > 0) && now () < last_due +. drain_timeout_ms do
    while !next < n && reqs.(!next).due_ms <= now () do
      let r = reqs.(!next) in
      let c = r.idx mod connections in
      (match reply_id r.line with
      | "" -> Queue.add r.idx anonymous.(c)
      | id -> Hashtbl.replace by_id id r.idx);
      outcomes.(r.idx) <- Some { sent_ms = now (); reply = None; latency_ms = nan };
      incr pending;
      let b = Bytes.of_string (r.line ^ "\n") in
      write_all conns.(c) b 0 (Bytes.length b);
      incr next
    done;
    let wait =
      if !next < n then Float.max 0. (reqs.(!next).due_ms -. now ()) /. 1000. else 0.05
    in
    let readable, _, _ =
      try Unix.select (Array.to_list conns) [] [] (Float.min wait 0.05)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    Array.iteri (fun c fd -> if List.mem fd readable then read_conn c) conns
  done;
  let span_ms = now () in
  Array.iter Unix.close conns;
  (Array.map Option.get outcomes, span_ms)

(* Closed-loop capacity: the requests sent back to back over
   [connections] connections, each keeping [depth] requests in flight
   (well inside the admission limits), for at most [drain_timeout_ms].
   Returns the replies received and the elapsed milliseconds. *)
let closed_loop ~socket ~depth (reqs : request list) =
  let conns =
    Array.init connections (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket);
        fd)
  in
  let queue = Queue.of_seq (List.to_seq reqs) in
  let inflight = Array.make connections 0 and replies = ref 0 in
  let chunk = Bytes.create 65536 in
  let send c =
    match Queue.take_opt queue with
    | None -> ()
    | Some r ->
        let b = Bytes.of_string (r.line ^ "\n") in
        write_all conns.(c) b 0 (Bytes.length b);
        inflight.(c) <- inflight.(c) + 1
  in
  let t0 = Span.now_ms () in
  Array.iteri (fun c _ -> for _ = 1 to depth do send c done) conns;
  while Array.exists (fun k -> k > 0) inflight && Span.now_ms () -. t0 < drain_timeout_ms do
    let readable, _, _ =
      try Unix.select (Array.to_list conns) [] [] 1.0
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    Array.iteri
      (fun c fd ->
        if List.mem fd readable then
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> inflight.(c) <- 0
          | k ->
              for i = 0 to k - 1 do
                if Bytes.get chunk i = '\n' then begin
                  incr replies;
                  inflight.(c) <- inflight.(c) - 1;
                  send c
                end
              done)
      conns
  done;
  let elapsed = Span.now_ms () -. t0 in
  Array.iter Unix.close conns;
  (!replies, elapsed)

let status ~socket =
  match
    S.Serve.Client.oneshot (S.Serve.Client.Unix_sock socket)
      (request_line ~id:"status" "status" [])
  with
  | Ok line -> (
      match Json.parse line with
      | Ok j -> Option.value (Json.member "result" j) ~default:Json.Null
      | Error _ -> Json.Null)
  | Error _ -> Json.Null

(* Start a daemon and send it the warm-up over one connection, one
   request at a time.  Returns the daemon, the set-up time (fork-to-ready
   plus warm-up) and whether every warm-up reply was ok. *)
let bring_up ~socket ~telemetry warmup =
  let t0 = Span.now_ms () in
  let d = start_daemon ~socket ~telemetry in
  let ok =
    match S.Serve.Client.connect (S.Serve.Client.Unix_sock socket) with
    | Error _ -> false
    | Ok c ->
        let ok =
          List.for_all
            (fun r ->
              match S.Serve.Client.roundtrip c r.line with
              | Ok reply -> S.Serve.Protocol.reply_is_ok reply
              | Error _ -> false)
            warmup
        in
        S.Serve.Client.close c;
        ok
  in
  (d, (Span.now_ms () -. t0) /. 1000., ok)

(* The deck against a warmed daemon: returns the outcomes, the run's span,
   the daemon's status afterwards and whether it shut down cleanly. *)
let session d ~socket ~traced reqs =
  let t0 = Span.now_ms () in
  let outcomes, span_ms = load ~socket reqs in
  set (if traced then "traced_pass_window" else "pass_window") (list num [ t0; Span.now_ms () ]);
  (* the daemon and its workers hold the warm state *)
  if not traced then
    set "peak_rss_mb"
      (num (List.fold_left (fun m p -> Float.max m (peak_rss_mb p)) 0. (d.pid :: children d.pid)));
  let st = status ~socket in
  let clean = stop_daemon d in
  (outcomes, span_ms, st, clean)

(* {2 In-process replay}

   The warm-up, then the deck, replayed in order through one
   [Handler.handle]: the handler's own cost per request, cold and warm,
   with no queue or IPC.  The warm-up opens each hot spec with a BeAFix
   repair, so that is where cold BeAFix costs come from. *)

let replay (reqs : request list) =
  let h = S.Serve.Handler.create ~max_sessions:S.Serve.Daemon.default_config.max_sessions in
  List.map
    (fun r ->
      let t0 = Span.now_ms () in
      let _, warmth = S.Serve.Handler.handle h r.line in
      let ms = Span.now_ms () -. t0 in
      let temp =
        match warmth with
        | S.Serve.Handler.Warm -> "warm"
        | S.Serve.Handler.Cold -> "cold"
        | S.Serve.Handler.Uncached -> "uncached"
      in
      (r, temp, ms))
    reqs

(* {2 The run} *)

let setup_reps = 3

let outcomes_json reqs outcomes =
  List.map2
    (fun r (o : outcome) ->
      obj
        [
          ("idx", int r.idx);
          ("kind", str r.kind);
          ("expect", str r.expect);
          ("due_ms", num r.due_ms);
          ("late_ms", num (o.sent_ms -. r.due_ms));
          ("latency_ms", num o.latency_ms);
          ("reply", match o.reply with Some l -> str l | None -> "null");
        ])
    reqs (Array.to_list outcomes)

let run ~seed ~seconds ~trace ~out =
  let t0 = Span.now_ms () in
  let warmup, reqs = deck ~seed ~seconds in
  set "generate_s" (num ((Span.now_ms () -. t0) /. 1000.));
  let socket = Filename.concat out "d.sock" in
  (* set-up, [setup_reps] times: fork-to-ready plus the warm-up; the last
     daemon serves the deck *)
  let rec bring_ups k acc =
    let t0 = Span.now_ms () in
    let d, setup_s, ok = bring_up ~socket ~telemetry:None warmup in
    let acc = (setup_s, [ t0; Span.now_ms () ], ok) :: acc in
    if k = 1 then (d, List.rev acc)
    else begin
      if not (stop_daemon d) then failwith "specbench: daemon did not shut down cleanly";
      bring_ups (k - 1) acc
    end
  in
  let d, setups = bring_ups setup_reps [] in
  set "setup_s" (list num (List.map (fun (s, _, _) -> s) setups));
  set "setup_windows" (list (list num) (List.map (fun (_, w, _) -> w) setups));
  set "warmup" (int (List.length warmup));
  set "warmup_ok" (string_of_bool (List.for_all (fun (_, _, ok) -> ok) setups));
  set "rate_per_s" (num rate_per_s);
  set "offered_rps" (num (float_of_int (List.length reqs) /. float_of_int seconds));
  set "slo_ms" (num slo_ms);
  set "attempted" (int (List.length reqs));
  let by_method = Hashtbl.create 8 in
  List.iter
    (fun r -> Hashtbl.replace by_method r.meth (1 + Option.value (Hashtbl.find_opt by_method r.meth) ~default:0))
    (warmup @ reqs);
  set "expected_by_method"
    (obj (List.sort compare (Hashtbl.fold (fun k v acc -> (k, int v) :: acc) by_method [])));
  let outcomes, span_ms, st, clean = session d ~socket ~traced:false reqs in
  set "span_s" (num (span_ms /. 1000.));
  set "status" (Json.to_string st);
  set "clean_shutdown" (string_of_bool clean);
  write_file (Filename.concat out "replies.jsonl")
    (String.concat "\n" (outcomes_json reqs outcomes) ^ "\n");
  if trace then begin
    let tele = Filename.concat out "daemon.jsonl" in
    let d, _, t_ok = bring_up ~socket ~telemetry:(Some tele) warmup in
    let t_outcomes, t_span_ms, _, t_clean = session d ~socket ~traced:true reqs in
    set "traced_span_s" (num (t_span_ms /. 1000.));
    (* the capacity the offered rate must sit well below: the same deck,
       closed-loop, against a fresh warmed daemon *)
    let d, _, c_ok = bring_up ~socket ~telemetry:None warmup in
    let c0 = Span.now_ms () in
    let replies, elapsed_ms = closed_loop ~socket ~depth:4 reqs in
    set "capacity_window" (list num [ c0; Span.now_ms () ]);
    set "capacity_rps" (num (float_of_int replies /. (elapsed_ms /. 1000.)));
    let c_clean = stop_daemon d in
    set "traced_clean_shutdown"
      (string_of_bool (t_clean && t_ok && c_ok && c_clean && replies = List.length reqs));
    List.iter2
      (fun r (o : outcome) ->
        ignore
          (Span.record ~start_ms:r.due_ms ~key:(Printf.sprintf "r%d" r.idx) "serve.request" o.latency_ms
             ~attrs:[ ("kind", str r.kind); ("late_ms", num (o.sent_ms -. r.due_ms)) ]))
      reqs (Array.to_list t_outcomes);
    List.iteri
      (fun i (r, temp, ms) ->
        let key = if i < List.length warmup then Printf.sprintf "w%d" r.idx else Printf.sprintf "r%d" r.idx in
        ignore
          (Span.record ~key "serve.handle" ms ~attrs:[ ("kind", str r.kind); ("warmth", str temp) ]))
      (replay (warmup @ reqs));
    List.iter
      (fun r ->
        match Json.parse r.line with
        | Ok j -> (
            match Option.bind (Json.member "params" j) (Json.mem_str "source") with
            | Some src when String.ends_with ~suffix:"cold" r.kind || String.ends_with ~suffix:"hot" r.kind ->
                ignore
                  (Span.with_span ~key:(Printf.sprintf "r%d" r.idx) "alloy.check" (fun () ->
                       Specrepair_alloy.Frontend.check src))
            | _ -> ())
        | Error _ -> ())
      reqs;
    Span.write (Filename.concat out "spans.jsonl")
  end
