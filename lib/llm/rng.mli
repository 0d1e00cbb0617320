(** Deterministic pseudo-random numbers (splitmix64).

    Every stochastic choice of the simulated LLM derives its stream from a
    study seed plus structured context (spec id, technique, round), so runs
    are reproducible bit-for-bit and independent across specs. *)

type t

val create : int64 -> t
val of_context : seed:int -> string list -> t
(** Derive a generator from the study seed and a context path, e.g.
    [["classroom_17"; "single-round"; "loc"]]. *)

val next_int64 : t -> int64
val float : t -> float
(** Uniform in [0, 1). *)

val int : t -> int -> int
(** Uniform in [0, n). *)

type 'a table
(** A weighted distribution prepared for repeated sampling: the elements
    in order with the running sums of their weights (negative weights
    count as zero). *)

val table : ('a * float) list -> 'a table

val draw : t -> 'a table -> 'a option
(** Samples proportionally to the weights by binary search over the
    running sums, consuming one draw; [None] without a draw when no weight
    is positive.  Picks exactly what a left-to-right scan of the running
    sums would pick from the same state. *)

val choose_weighted : t -> ('a * float) list -> 'a option
(** [draw t (table weighted)]. *)

val shuffle : t -> 'a list -> 'a list
