(* specbench: one benchmark run in a fresh process.

     specbench --workload W --seed N --seconds S --trace 0|1 --out DIR [--inject F]

   Writes DIR/report.json (raw measurements), DIR/speed.<core>.txt (the
   machine-speed probes' samples) and the outputs the correctness gates
   check; perfbench/run.py turns them into metrics.  --inject F (study-llm)
   adds allocating work of F times each
   row's wall time to the row: the self-test's known regression. *)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 20 and trace = ref 0 in
  let out = ref "" and inject = ref 0. in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "study-llm | study-tools | serve-mixed");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "nominal run length");
      ("--trace", Arg.Set_int trace, "1 = traced run");
      ("--out", Arg.Set_string out, "output directory");
      ("--inject", Arg.Set_float inject, "injected slowdown, as a share of each row's wall time");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "specbench --workload W --seed N --seconds S --trace 0|1 --out DIR";
  let seed = !seed and seconds = !seconds and trace = !trace = 1 and out = !out in
  let run =
    match !workload with
    | "study-llm" -> Study_wl.run Study_wl.Llm ~inject:!inject
    | "study-tools" -> Study_wl.run Study_wl.Tools ~inject:!inject
    | "serve-mixed" -> Serve_wl.run
    | w ->
        prerr_endline ("specbench: unknown workload " ^ w);
        exit 2
  in
  if out = "" || seconds < 1 then begin
    prerr_endline "specbench: --out and --seconds >= 1 are required";
    exit 2
  end;
  Common.set "workload" (Common.str !workload);
  Common.set "seed" (Common.int seed);
  Common.set "seconds" (Common.int seconds);
  let probe = Speed.start ~idle:(!workload = "serve-mixed") ~out in
  Fun.protect
    ~finally:(fun () -> Speed.stop probe)
    (fun () -> run ~seed ~seconds ~trace ~out);
  Common.set "speed_nominal_ms" (Common.num Speed.nominal_ms);
  Common.write_report (Filename.concat out "report.json")
