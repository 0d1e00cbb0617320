module Alloy = Specrepair_alloy
module Solver = Specrepair_solver
module Mutate = Specrepair_mutation.Mutate

type budget = {
  max_depth : int;
  max_candidates : int;
  max_iterations : int;
  max_conflicts : int;
  locations : int;
  use_pool : bool;
}

let default_budget =
  {
    max_depth = 2;
    max_candidates = 800;
    max_iterations = 4;
    max_conflicts = 20_000;
    locations = 6;
    use_pool = true;
  }

(* The last spec asked for and its space; keyed by structural equality,
   because a cached mutation's path indexes the AST it was enumerated
   on. *)
type space_memo = (Alloy.Ast.spec * Mutate.t list option) option ref

let space_memo () = ref None

type t = {
  env : Alloy.Typecheck.env;
  oracle : Solver.Oracle.t;
  budget : budget;
  seed : int;
  started_ns : int64;
  deadline_ns : int64 option;  (* absolute, on the monotonic clock *)
  deadline_rel_ms : float option;
  telemetry : Telemetry.t;
  oracle_base : Solver.Oracle.stats;  (* snapshot at creation, for deltas *)
  sat_base : Solver.Oracle.sat_stats;
  expiry : bool ref;  (* latched; shared with derived sessions *)
  memo : space_memo;
}

let now_ns () = Monotonic_clock.now ()

let create ?oracle ?(memo = space_memo ()) ?(certify = false)
    ?(simplify = false) ?(portfolio = 1) ?(budget = default_budget)
    ?(seed = 42) ?deadline_ms env =
  let telemetry = Telemetry.create () in
  let oracle =
    match oracle with
    | Some o -> o
    | None ->
        Solver.Oracle.create ~certify ~simplify ~portfolio
          ~on_certify:(Telemetry.record_certified telemetry)
          env
  in
  let started_ns = now_ns () in
  {
    env;
    oracle;
    budget;
    seed;
    started_ns;
    deadline_ns =
      Option.map
        (fun ms -> Int64.add started_ns (Int64.of_float (ms *. 1e6)))
        deadline_ms;
    deadline_rel_ms = deadline_ms;
    telemetry;
    oracle_base = Solver.Oracle.stats oracle;
    sat_base = Solver.Oracle.sat_stats oracle;
    expiry = ref false;
    memo;
  }

let for_spec ?oracle ?certify ?simplify ?portfolio ?budget ?seed ?deadline_ms
    spec =
  let env =
    match Alloy.Typecheck.check_result spec with
    | Ok env -> env
    | Error _ ->
        (* ill-typed input (an LLM task whose faulty spec does not check):
           anchor on the empty spec; every candidate is sig-incompatible and
           the oracle serves it by fresh-solve fallback, transparently *)
        Alloy.Typecheck.check Alloy.Ast.empty_spec
  in
  create ?oracle ?certify ?simplify ?portfolio ?budget ?seed ?deadline_ms env

let with_budget t f = { t with budget = f t.budget }

let env t = t.env
let oracle t = t.oracle
let budget t = t.budget
let seed t = t.seed
let telemetry t = t.telemetry

let mutation_space t spec =
  match !(t.memo) with
  | Some (s, space) when s == spec || Alloy.Ast.equal_spec s spec -> space
  | _ ->
      let space =
        match Alloy.Typecheck.check_result spec with
        | Error _ -> None
        | Ok env -> Some (Mutate.all_mutations env spec ~with_pool:true ())
      in
      t.memo := Some (spec, space);
      space

let expired t =
  match t.deadline_ns with
  | None -> false
  | Some _ when !(t.expiry) -> true
  | Some deadline ->
      Telemetry.deadline_check t.telemetry;
      if Int64.compare (now_ns ()) deadline >= 0 then begin
        t.expiry := true;
        true
      end
      else false

let timed_out t = !(t.expiry)
let deadline_ms t = t.deadline_rel_ms

let elapsed_ms t = Int64.to_float (Int64.sub (now_ns ()) t.started_ns) /. 1e6

(* Clock-reading but latch-preserving: an already-expired session always
   answers [Some 0.].  The learned portfolio budgets its technique plan
   against this. *)
let remaining_ms t =
  match t.deadline_ns with
  | None -> None
  | Some _ when !(t.expiry) -> Some 0.
  | Some deadline ->
      Some
        (Float.max 0.
           (Int64.to_float (Int64.sub deadline (now_ns ())) /. 1e6))

let time t phase f =
  let t0 = now_ns () in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.add_phase_ms t.telemetry phase
        (Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6))
    f

let command_verdict ?max_conflicts t env cmd =
  let v = Solver.Oracle.command_verdict ?max_conflicts t.oracle env cmd in
  Telemetry.record_verdict t.telemetry v;
  v

let run_command ?max_conflicts t env cmd =
  Telemetry.record_instance_query t.telemetry;
  Solver.Oracle.run_command ?max_conflicts t.oracle env cmd

let enumerate ?limit ?max_conflicts t env scope f =
  Telemetry.record_enumeration t.telemetry;
  Solver.Oracle.enumerate ?limit ?max_conflicts t.oracle env scope f

let sat_stats t =
  let s = Solver.Oracle.sat_stats t.oracle and b = t.sat_base in
  {
    Solver.Oracle.conflicts = s.conflicts - b.conflicts;
    decisions = s.decisions - b.decisions;
    propagations = s.propagations - b.propagations;
    restarts = s.restarts - b.restarts;
    reductions = s.reductions - b.reductions;
    subsumed = s.subsumed - b.subsumed;
    strengthened = s.strengthened - b.strengthened;
    vivified = s.vivified - b.vivified;
    eliminated = s.eliminated - b.eliminated;
  }

let oracle_stats t =
  let s = Solver.Oracle.stats t.oracle and b = t.oracle_base in
  {
    Solver.Oracle.verdict_hits = s.verdict_hits - b.verdict_hits;
    verdict_misses = s.verdict_misses - b.verdict_misses;
    instance_hits = s.instance_hits - b.instance_hits;
    instance_misses = s.instance_misses - b.instance_misses;
    fallback_queries = s.fallback_queries - b.fallback_queries;
    formulas_translated = s.formulas_translated - b.formulas_translated;
    formulas_reused = s.formulas_reused - b.formulas_reused;
    contexts = s.contexts;
    certified = s.certified - b.certified;
    certificate_failures = s.certificate_failures - b.certificate_failures;
  }

(* {2 JSON serialization} *)

let telemetry_json ?(extra = []) t =
  let open Specrepair_base.Json in
  (* milliseconds to the microsecond *)
  let ms x = Num (Float.round (x *. 1000.) /. 1000.) in
  let m = t.telemetry in
  let os = oracle_stats t and ss = sat_stats t in
  to_string
    (Obj
       (List.map (fun (k, v) -> (k, Str v)) extra
       @ [
           ("elapsed_ms", ms (elapsed_ms t));
           ("timed_out", Bool (timed_out t));
           ("solver_queries", int (Telemetry.solver_queries m));
           ("sat_verdicts", int m.Telemetry.sat_verdicts);
           ("unsat_verdicts", int m.unsat_verdicts);
           ("unknown_verdicts", int m.unknown_verdicts);
           ("instance_queries", int m.instance_queries);
           ("enumerations", int m.enumerations);
           ("candidates_generated", int m.candidates_generated);
           ("candidates_evaluated", int m.candidates_evaluated);
           ("llm_rounds", int m.llm_rounds);
           ("pool_peak", int m.pool_peak);
           ("deadline_checks", int m.deadline_checks);
           ("certified_unsat", int m.certified_unsat);
           ("certificate_failures", int m.certificate_failures);
           ( "oracle",
             Obj
               [
                 ("verdict_hits", int os.Solver.Oracle.verdict_hits);
                 ("verdict_misses", int os.verdict_misses);
                 ("instance_hits", int os.instance_hits);
                 ("instance_misses", int os.instance_misses);
                 ("fallback_queries", int os.fallback_queries);
                 ("formulas_translated", int os.formulas_translated);
                 ("formulas_reused", int os.formulas_reused);
                 ("contexts", int os.contexts);
                 ("certified", int os.certified);
                 ("certificate_failures", int os.certificate_failures);
               ] );
           ( "sat",
             Obj
               [
                 ("conflicts", int ss.Solver.Oracle.conflicts);
                 ("decisions", int ss.decisions);
                 ("propagations", int ss.propagations);
                 ("restarts", int ss.restarts);
                 ("reductions", int ss.reductions);
                 ("subsumed", int ss.subsumed);
                 ("strengthened", int ss.strengthened);
                 ("vivified", int ss.vivified);
                 ("eliminated", int ss.eliminated);
               ] );
           ( "phases",
             Obj (List.map (fun (phase, x) -> (phase, ms x)) (Telemetry.phases m))
           );
         ]))

let pp_telemetry ppf t =
  Format.fprintf ppf "@[<v>%a@,elapsed: %.3f ms, timed out: %b@,oracle: %a@]"
    Telemetry.pp t.telemetry (elapsed_ms t) (timed_out t)
    (fun ppf (s : Solver.Oracle.stats) ->
      Format.fprintf ppf
        "%d/%d verdict hits, %d/%d instance hits, %d fallbacks, %d contexts"
        s.verdict_hits
        (s.verdict_hits + s.verdict_misses)
        s.instance_hits
        (s.instance_hits + s.instance_misses)
        s.fallback_queries s.contexts)
    (oracle_stats t)
