(** Forked worker processes: the one supervisor behind the study
    scheduler, the serve pool, the SAT portfolio and the client burst.

    A worker is a forked child running a caller-supplied body.  The parent
    talks to it over a {e command pipe} (parent -> child) and hears from
    it over a non-blocking {e message pipe} (child -> parent); both carry
    '\n'-terminated lines, and a line sent through this module never
    contains a newline (embedded ones are flattened to spaces), so one
    [send] is always exactly one line at the other end, whatever its
    length.

    Fd hygiene: every live worker is kept in one registry, and a freshly
    forked child closes the parent-side ends of every other live worker's
    pipes before its body runs.  A worker therefore sees EOF on its
    command pipe as soon as the parent closes it, no matter how many
    siblings were forked after it.

    Heartbeats are on the monotonic clock: each worker carries the time it
    was last heard from (spawn, then every complete line read), and
    {!silent_ms} is measured against it.  Wall-clock jumps never kill a
    worker. *)

type t

val spawn : (recv:(unit -> string option) -> send:(string -> unit) -> unit) -> t
(** Fork a worker running [body ~recv ~send]: [recv ()] blocks for the
    next command line ([None] at EOF), [send line] writes one message
    line.  The child restores the default SIGTERM/SIGINT dispositions (a
    handler the parent installed for itself must not leak into workers)
    and leaves with [_exit 0] when the body returns.  An exception that
    escapes the body is printed to the child's stderr and the child
    leaves with [_exit 2].  A [send] that finds the message pipe closed
    (EPIPE: the parent is gone, or has already dropped this worker) also
    leaves with [_exit 2], but quietly: there is nobody left to tell. *)

val pid : t -> int

val fd : t -> Unix.file_descr
(** The parent's end of the message pipe, for callers that fold workers
    into a [select] of their own.  Non-blocking. *)

val send : t -> string -> bool
(** Write one command line.  [false] when the worker is already gone
    (EPIPE, or its pipes are closed); the caller's death poll finds out
    why.  Run inside {!ignoring_sigpipe} so a vanished reader is EPIPE,
    not a fatal signal. *)

val read : t -> [ `Lines of string list | `Eof ]
(** One read from the message pipe: the complete lines received so far,
    in order ([`Lines []] when nothing complete is there yet), or [`Eof]
    once the worker has closed its end.  A partial trailing line is
    buffered for the next call. *)

val silent_ms : t -> float
(** Milliseconds on the monotonic clock since the worker was last heard
    from. *)

val exited : t -> Unix.process_status option
(** Non-blocking death poll: [Some status] once the worker has exited
    (it is reaped here, and the status remembered).  A worker that
    someone else already reaped (ECHILD) counts as exited, with an
    unknown status reported as [WEXITED 0]. *)

val reap : t -> Unix.process_status
(** Close both pipes (the worker sees EOF on its commands, and a worker
    still writing gets EPIPE instead of blocking), drop the worker from
    the registry and wait for it to exit.  Idempotent: later calls return
    the same status. *)

val kill : t -> unit
(** SIGKILL the worker unless it has already been reaped, then {!reap}
    it.  Calling it twice is harmless and leaves no zombie. *)

val select : t list -> float -> t list
(** The workers among those given whose message pipe is readable within
    [timeout] seconds.  Workers at EOF or closed are skipped (and with
    none left it returns [[]] at once); EINTR reads as "nothing ready". *)

val status_to_string : Unix.process_status -> string
(** ["exited 3"], ["killed by signal -7"] (OCaml signal numbers), ... for
    error messages. *)

val one_line : string -> string
(** Flatten newlines to spaces: the framing {!send} applies, for callers
    that write lines to files of their own. *)

val ignoring_sigpipe : (unit -> 'a) -> 'a
(** Run with SIGPIPE ignored, restoring the previous disposition after:
    a write to a worker that vanished then fails with EPIPE instead of
    killing the parent. *)

val with_scratch_dir : string -> (string -> 'a) -> 'a
(** [with_scratch_dir prefix f] runs [f] on a fresh temporary directory
    and removes it (with the files in it) afterwards. *)
