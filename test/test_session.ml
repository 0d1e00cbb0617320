(* Tests for the session layer: cooperative deadlines across every
   technique family, telemetry counters, budget/seed plumbing, and the
   Technique name round-trip. *)

open Specrepair_alloy
module Repair = Specrepair_repair
module Session = Repair.Session
module Telemetry = Specrepair_engine.Telemetry
module Aunit = Specrepair_aunit.Aunit
module Solver = Specrepair_solver
module Llm = Specrepair_llm
module Eval = Specrepair_eval
module B = Specrepair_benchmarks

let faulty_src =
  {|
sig Node {
  edges: set Node
}
fact Acyclic {
  some n: Node | n in n.^edges
}
assert NoLoop {
  all n: Node | n not in n.^edges
}
check NoLoop for 3
run { some edges } for 3
|}

let ground_truth_src =
  {|
sig Node {
  edges: set Node
}
fact Acyclic {
  no n: Node | n in n.^edges
}
assert NoLoop {
  all n: Node | n not in n.^edges
}
check NoLoop for 3
run { some edges } for 3
|}

let env_of src = Typecheck.check (Parser.parse src)
let faulty_env = lazy (env_of faulty_src)

let task =
  lazy
    (Llm.Task.make ~spec_id:"sessiontest_0" ~domain:"graphs"
       ~faulty:(Parser.parse faulty_src)
       ~check_names:[ "NoLoop" ] ())

let check_timed_out label (r : Repair.Common.result) (env : Typecheck.env) =
  Alcotest.(check bool) (label ^ " reports timed_out") true r.timed_out;
  Alcotest.(check bool) (label ^ " does not claim success") false r.repaired;
  (* best-effort result is well-formed: the final spec type-checks *)
  Alcotest.(check bool) (label ^ " final spec type-checks") true
    (Result.is_ok (Typecheck.check_result r.final_spec));
  ignore env

(* A deadline of 0 ms is already expired at the first cooperative check:
   every technique family must abort and return a well-formed best-effort
   result flagged timed_out. *)

let test_deadline_traditional () =
  let env = Lazy.force faulty_env in
  let expired () = Session.create ~deadline_ms:0.0 env in
  let tests =
    Aunit.generate ~per_kind:2 (env_of ground_truth_src)
      ~scope:Solver.Analyzer.default_scope
  in
  check_timed_out "arepair"
    (Repair.Arepair.repair ~session:(expired ()) env tests)
    env;
  check_timed_out "icebar"
    (Repair.Icebar.repair ~session:(expired ()) env tests)
    env;
  check_timed_out "beafix" (Repair.Beafix.repair ~session:(expired ()) env) env;
  check_timed_out "atr" (Repair.Atr.repair ~session:(expired ()) env) env

let test_deadline_single_round () =
  let session = Session.for_spec ~deadline_ms:0.0 (Lazy.force task).faulty in
  let r = Llm.Single_round.repair ~session (Lazy.force task) Llm.Prompt.SLoc in
  Alcotest.(check bool) "single-round reports timed_out" true r.timed_out;
  Alcotest.(check bool) "no model round was spent" true (r.candidates_tried = 0);
  Alcotest.(check bool) "final spec type-checks" true
    (Result.is_ok (Typecheck.check_result r.final_spec))

let test_deadline_multi_round () =
  let session = Session.for_spec ~deadline_ms:0.0 (Lazy.force task).faulty in
  let r =
    Llm.Multi_round.repair ~session (Lazy.force task) Llm.Multi_round.Generic
  in
  Alcotest.(check bool) "multi-round reports timed_out" true r.timed_out;
  Alcotest.(check bool) "aborted before any round" true (r.iterations = 0);
  Alcotest.(check bool) "final spec type-checks" true
    (Result.is_ok (Typecheck.check_result r.final_spec))

let test_deadline_portfolio () =
  let session = Session.for_spec ~deadline_ms:0.0 (Lazy.force task).faulty in
  let r, stage = Eval.Portfolio.repair ~session (Lazy.force task) in
  Alcotest.(check bool) "portfolio reports timed_out" true r.timed_out;
  Alcotest.(check string) "portfolio stage" "unrepaired"
    (Eval.Portfolio.stage_to_string stage)

(* Without a deadline (or with a generous one) sessions must not perturb
   results: the study rows are identical either way, seed for seed. *)

let test_generous_deadline_identical_rows () =
  let variants = B.Generate.sample ~per_domain:1 () in
  let variants = List.filteri (fun i _ -> i < 3) variants in
  let techniques =
    [
      Eval.Technique.ATR;
      Eval.Technique.BeAFix;
      Eval.Technique.Multi (Llm.Multi_round.No_feedback, Llm.Model.gpt4);
    ]
  in
  let a = Eval.Study.run_parallel ~techniques variants in
  let b = Eval.Study.run_parallel ~deadline_ms:1e9 ~techniques variants in
  List.iter2
    (fun (x : Eval.Study.spec_result) (y : Eval.Study.spec_result) ->
      Alcotest.(check string) "variant" x.variant_id y.variant_id;
      Alcotest.(check string) "technique" x.technique y.technique;
      Alcotest.(check int) ("rep for " ^ x.variant_id) x.rep y.rep;
      Alcotest.(check (float 1e-9)) "tm" x.tm y.tm;
      Alcotest.(check (float 1e-9)) "sm" x.sm y.sm;
      Alcotest.(check bool) "tool_claimed" x.tool_claimed y.tool_claimed)
    a b

(* {2 Telemetry} *)

let test_telemetry_counters () =
  let env = Lazy.force faulty_env in
  let session = Session.create env in
  let r = Repair.Beafix.repair ~session env in
  Alcotest.(check bool) "repair succeeded" true r.repaired;
  let t = Session.telemetry session in
  Alcotest.(check bool) "candidates evaluated >= 1" true
    (t.Telemetry.candidates_evaluated >= 1);
  Alcotest.(check bool) "candidates generated >= evaluated" true
    (t.Telemetry.candidates_generated >= t.Telemetry.candidates_evaluated);
  Alcotest.(check bool) "solver was queried" true
    (Telemetry.solver_queries t >= 1);
  Alcotest.(check bool) "phase timers recorded" true
    (List.mem_assoc "mutation" (Telemetry.phases t))

let test_telemetry_json_parses () =
  let env = Lazy.force faulty_env in
  let session = Session.create env in
  ignore (Repair.Atr.repair ~session env);
  let json = Session.telemetry_json ~extra:[ ("tool", "ATR") ] session in
  (* one line, object-shaped, with the headline counters present *)
  Alcotest.(check bool) "single line" false (String.contains json '\n');
  Alcotest.(check bool) "object" true
    (String.length json >= 2
    && json.[0] = '{'
    && json.[String.length json - 1] = '}');
  List.iter
    (fun needle ->
      let nl = String.length needle and tl = String.length json in
      let rec go i =
        i + nl <= tl && (String.sub json i nl = needle || go (i + 1))
      in
      Alcotest.(check bool) ("mentions " ^ needle) true (go 0))
    [
      "\"tool\"";
      "\"elapsed_ms\"";
      "\"timed_out\"";
      "\"solver_queries\"";
      "\"candidates_evaluated\"";
      "\"oracle\"";
    ]

(* With ~certify:true every UNSAT verdict the repair relies on must come
   with a DRUP certificate the independent checker accepts; the outcomes
   land both in the oracle stats and in the session telemetry. *)
let test_certified_repair () =
  let env = Lazy.force faulty_env in
  let session = Session.create ~certify:true env in
  let r = Repair.Beafix.repair ~session env in
  Alcotest.(check bool) "repair succeeded" true r.repaired;
  let t = Session.telemetry session in
  Alcotest.(check bool) "some UNSAT verdicts were certified" true
    (t.Telemetry.certified_unsat >= 1);
  Alcotest.(check int) "no certificate failures" 0
    t.Telemetry.certificate_failures;
  let os = Session.oracle_stats session in
  Alcotest.(check int) "oracle stats agree with telemetry"
    t.Telemetry.certified_unsat os.Solver.Oracle.certified;
  Alcotest.(check int) "oracle stats report no failures" 0
    os.Solver.Oracle.certificate_failures;
  (* certification is an observer: the verdicts themselves are unchanged *)
  let plain = Repair.Beafix.repair ~session:(Session.create env) env in
  Alcotest.(check bool) "same outcome without certification" r.repaired
    plain.repaired

let test_session_budget_and_seed () =
  let env = Lazy.force faulty_env in
  let budget = { Session.default_budget with max_candidates = 7 } in
  let s = Session.create ~budget ~seed:17 env in
  Alcotest.(check int) "budget carried" 7 (Session.budget s).max_candidates;
  Alcotest.(check int) "seed carried" 17 (Session.seed s);
  let derived =
    Session.with_budget s (fun b -> { b with Session.max_candidates = 3 })
  in
  Alcotest.(check int) "derived budget" 3
    (Session.budget derived).max_candidates;
  Alcotest.(check int) "derived seed shared" 17 (Session.seed derived);
  Alcotest.(check bool) "telemetry shared" true
    (Session.telemetry derived == Session.telemetry s);
  Alcotest.(check bool) "no deadline, never expires" false (Session.expired s)

(* {2 Mutation-space memo} *)

let fresh_space spec =
  let env = Typecheck.check spec in
  Specrepair_mutation.Mutate.all_mutations env spec ~with_pool:true ()

let space session spec =
  match Session.mutation_space session spec with
  | Some ms -> ms
  | None -> Alcotest.fail "well-typed spec has no space"

let test_memo_structural_hit () =
  let session = Session.create (Lazy.force faulty_env) in
  let a = Parser.parse faulty_src and b = Parser.parse faulty_src in
  Alcotest.(check bool) "distinct specs" false (a == b);
  let ma = space session a in
  Alcotest.(check bool) "equal specs share one list" true (space session b == ma);
  Alcotest.(check bool) "the list is the enumerated space" true
    (ma = fresh_space a);
  let derived = Session.with_budget session Fun.id in
  Alcotest.(check bool) "derived session shares the memo" true
    (space derived a == ma);
  Alcotest.(check bool) "a fresh session has its own memo" false
    (space (Session.create (Lazy.force faulty_env)) a == ma)

let test_memo_ill_typed () =
  let session = Session.create (Lazy.force faulty_env) in
  let ill = Parser.parse "sig A {}\nfact F { some NoSuchRel }\n" in
  Alcotest.(check bool) "does not type-check" true
    (Result.is_error (Typecheck.check_result ill));
  Alcotest.(check bool) "no space" true (Session.mutation_space session ill = None);
  Alcotest.(check bool) "still none when remembered" true
    (Session.mutation_space session ill = None)

(* The memo holds one spec: asking for another replaces it, and the
   first then comes back recomputed, equal to a fresh enumeration but not
   the cached list. *)
let test_memo_replacement () =
  let session = Session.create (Lazy.force faulty_env) in
  let spec scope =
    Parser.parse
      (Printf.sprintf
         "sig Node { edges: set Node }\n\
          fact Acyclic { some n: Node | n in n.^edges }\n\
          run { some edges } for %d\n" scope)
  in
  let cached = space session (spec 2) in
  ignore (space session (spec 3));
  let again = space session (spec 2) in
  Alcotest.(check bool) "replaced: recomputed" false (again == cached);
  Alcotest.(check bool) "recomputed space equals a fresh one" true
    (again = fresh_space (spec 2))

(* The study's memo is shared by every row of a process, so rows must
   not depend on which variants ran before: the LLM techniques on two
   variants of one domain, in both orders. *)
let test_memo_order_independent () =
  let d = List.find (fun (d : B.Domains.t) -> d.count >= 2) B.Domains.all in
  let va = B.Generate.variant_at d 0 and vb = B.Generate.variant_at d 1 in
  let rows v =
    Eval.Study.to_csv ~timings:false
      (List.map (fun t -> Eval.Study.run_one t v) Eval.Technique.llm_based)
  in
  let a1 = rows va in
  let b1 = rows vb in
  let b2 = rows vb in
  let a2 = rows va in
  Alcotest.(check string) ("rows of " ^ va.id) a1 a2;
  Alcotest.(check string) ("rows of " ^ vb.id) b1 b2

(* {2 Technique roster} *)

let test_technique_roundtrip () =
  Alcotest.(check int) "twelve techniques" 12 (List.length Eval.Technique.all);
  List.iter
    (fun t ->
      match Eval.Technique.of_name (Eval.Technique.name t) with
      | Some t' ->
          Alcotest.(check string)
            ("round-trip " ^ Eval.Technique.name t)
            (Eval.Technique.name t) (Eval.Technique.name t')
      | None ->
          Alcotest.failf "of_name failed for %s" (Eval.Technique.name t))
    Eval.Technique.all;
  Alcotest.(check bool) "unknown name rejected" true
    (Eval.Technique.of_name "NoSuchTool" = None)

let () =
  Alcotest.run "session"
    [
      ( "deadline",
        [
          Alcotest.test_case "traditional tools" `Quick
            test_deadline_traditional;
          Alcotest.test_case "single-round" `Quick test_deadline_single_round;
          Alcotest.test_case "multi-round" `Quick test_deadline_multi_round;
          Alcotest.test_case "portfolio" `Quick test_deadline_portfolio;
          Alcotest.test_case "generous deadline is a no-op" `Slow
            test_generous_deadline_identical_rows;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "counters" `Quick test_telemetry_counters;
          Alcotest.test_case "certified repair" `Quick test_certified_repair;
          Alcotest.test_case "json" `Quick test_telemetry_json_parses;
          Alcotest.test_case "budget and seed" `Quick
            test_session_budget_and_seed;
        ] );
      ( "memo",
        [
          Alcotest.test_case "structural hit" `Quick test_memo_structural_hit;
          Alcotest.test_case "ill-typed" `Quick test_memo_ill_typed;
          Alcotest.test_case "replacement" `Quick test_memo_replacement;
          Alcotest.test_case "order cannot leak" `Slow
            test_memo_order_independent;
        ] );
      ( "techniques",
        [ Alcotest.test_case "name round-trip" `Quick test_technique_roundtrip ] );
    ]
