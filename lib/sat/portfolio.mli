(** A racing portfolio of forked solver workers.

    Forks [jobs] diversified solver configurations over the same CNF — the
    formula is inherited through [fork], nothing is serialized — and
    returns the first verdict that survives validation.  Worker 0 always
    runs the caller's own configuration untouched, so [~jobs:1] produces a
    byte-identical verdict and model to plain solving; the other workers
    scramble saved phases, restart cadence, and simplification on/off.

    Verdicts are never trusted on a worker's word: a SAT model is
    re-evaluated against the parent's copy of the CNF, and with
    [~certify:true] an UNSAT verdict is accepted only when the independent
    {!Drat} checker admits the worker's streamed proof file.  Rejected
    workers drop out of the race; if every worker dies or is rejected the
    parent solves in-process ([winner = -1]).  Losers are SIGKILLed and all
    children are reaped before [solve] returns; a worker silent for 10 s
    on the monotonic clock (heartbeats flow at every solver restart) is
    presumed hung and killed. *)

type outcome = {
  result : Solver.result;
  model : bool array option;
      (** on [Sat]: a model over the original variables (simplifying
          workers reconstruct before publishing) *)
  winner : int;  (** index of the accepted worker; [-1] = in-process fallback *)
  workers : int;  (** workers forked *)
  rejected : int;
      (** verdicts discarded: failed model check, refused certificate,
          worker death or heartbeat kill *)
}

val solve :
  ?jobs:int ->
  ?simplify:bool ->
  ?certify:bool ->
  ?proof:Proof.sink ->
  ?max_conflicts:int ->
  Dimacs.cnf ->
  outcome
(** Race [jobs] workers (default 4, clamped to at least 1) on [cnf].
    [simplify] sets worker 0's configuration (and seeds the diversification
    of the rest); [max_conflicts] bounds each worker's conflicts (a race in
    which every worker exhausts the budget falls through to a budgeted
    in-process solve and answers [Unknown]).  The sink, when given,
    receives the winner's proof as [Step] events only — the caller owns the
    premises, as with {!Simplify.solve} — and only for [Unsat] verdicts. *)
