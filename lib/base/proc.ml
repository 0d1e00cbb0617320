(* Forked worker processes: spawn, line framing, fd hygiene, monotonic
   heartbeats and kill/reap, shared by every module that forks workers.
   The callers keep only their own wire protocol and policy. *)

type t = {
  pid : int;
  cmd_w : Unix.file_descr;  (* parent's end: commands out *)
  msg_r : Unix.file_descr;  (* parent's end: messages in (non-blocking) *)
  rbuf : Buffer.t;  (* partial message line *)
  mutable last_heard : int64;  (* monotonic ns *)
  mutable eof : bool;  (* the worker closed its message pipe *)
  mutable closed : bool;  (* our pipe ends are closed; never touch them again *)
  mutable status : Unix.process_status option;  (* reaped *)
}

let now () = Monotonic_clock.now ()

(* Every worker whose pipe ends are still open in this process, keyed by
   its command fd: unlike a pid, which is free for reuse once reaped, the
   number cannot be handed out again before [close_ends] drops the entry.
   A child closes all of them before running its body. *)
let registry : (Unix.file_descr, t) Hashtbl.t = Hashtbl.create 16

let one_line s = String.map (fun c -> if c = '\n' then ' ' else c) s

let write_line fd line =
  let b = Bytes.of_string (one_line line ^ "\n") in
  let len = Bytes.length b in
  let rec go off = if off < len then go (off + Unix.write fd b off (len - off)) in
  go 0

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let close_ends t =
  if not t.closed then begin
    t.closed <- true;
    Hashtbl.remove registry t.cmd_w;
    close_quietly t.cmd_w;
    close_quietly t.msg_r
  end

let spawn body =
  let cmd_r, cmd_w = Unix.pipe ~cloexec:false () in
  let msg_r, msg_w = Unix.pipe ~cloexec:false () in
  match Unix.fork () with
  | 0 ->
      close_quietly cmd_w;
      close_quietly msg_r;
      (* drop the parent's ends of every sibling's pipes, so a sibling
         sees EOF as soon as the parent closes its command pipe; this
         process starts with no workers of its own *)
      Hashtbl.iter
        (fun _ w ->
          w.closed <- true;
          close_quietly w.cmd_w;
          close_quietly w.msg_r)
        registry;
      Hashtbl.reset registry;
      (try Sys.set_signal Sys.sigterm Sys.Signal_default with Invalid_argument _ -> ());
      (try Sys.set_signal Sys.sigint Sys.Signal_default with Invalid_argument _ -> ());
      let ic = Unix.in_channel_of_descr cmd_r in
      let recv () = try Some (input_line ic) with End_of_file -> None in
      (* EPIPE: the parent is gone or has dropped us; nobody is left to
         report to, so leave quietly rather than as a crash *)
      let send line =
        try write_line msg_w line with Unix.Unix_error (EPIPE, _, _) -> Unix._exit 2
      in
      (match body ~recv ~send with
      | () -> Unix._exit 0
      | exception e ->
          (* straight to fd 2: flushing the stderr channel would also
             replay whatever the parent had buffered there at fork time *)
          let msg =
            Printf.sprintf "worker %d: %s\n" (Unix.getpid ()) (Printexc.to_string e)
          in
          (try ignore (Unix.write_substring Unix.stderr msg 0 (String.length msg))
           with Unix.Unix_error _ -> ());
          Unix._exit 2)
  | pid ->
      close_quietly cmd_r;
      close_quietly msg_w;
      (* non-blocking: a caller holding a stale readable set from select
         (fd numbers are recycled on respawn) must never block here *)
      Unix.set_nonblock msg_r;
      let t =
        {
          pid;
          cmd_w;
          msg_r;
          rbuf = Buffer.create 256;
          last_heard = now ();
          eof = false;
          closed = false;
          status = None;
        }
      in
      Hashtbl.replace registry cmd_w t;
      t

let pid t = t.pid
let fd t = t.msg_r

let send t line =
  (not t.closed)
  &&
  match write_line t.cmd_w line with
  | () -> true
  | exception Unix.Unix_error ((EPIPE | EBADF), _, _) -> false

let scratch = Bytes.create 65536

let read t =
  if t.closed || t.eof then `Eof
  else
    match Unix.read t.msg_r scratch 0 (Bytes.length scratch) with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> `Lines []
    | 0 ->
        t.eof <- true;
        `Eof
    | k ->
        Buffer.add_subbytes t.rbuf scratch 0 k;
        let text = Buffer.contents t.rbuf in
        let rec split from acc =
          match String.index_from_opt text from '\n' with
          | Some i -> split (i + 1) (String.sub text from (i - from) :: acc)
          | None -> (from, List.rev acc)
        in
        let rest, lines = split 0 [] in
        if lines <> [] then begin
          t.last_heard <- now ();
          Buffer.clear t.rbuf;
          Buffer.add_substring t.rbuf text rest (String.length text - rest)
        end;
        `Lines lines

let silent_ms t = Int64.to_float (Int64.sub (now ()) t.last_heard) /. 1e6

let exited t =
  match t.status with
  | Some _ as s -> s
  | None -> (
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ -> None
      | _, st ->
          t.status <- Some st;
          t.status
      | exception Unix.Unix_error (ECHILD, _, _) ->
          t.status <- Some (Unix.WEXITED 0);
          t.status)

let rec reap_blocking pid =
  match Unix.waitpid [] pid with
  | _, st -> st
  | exception Unix.Unix_error (EINTR, _, _) -> reap_blocking pid
  | exception Unix.Unix_error (ECHILD, _, _) -> Unix.WEXITED 0

let reap t =
  (* both ends first: the worker sees EOF on its commands, and a worker
     still writing gets EPIPE instead of blocking on a full pipe *)
  close_ends t;
  match t.status with
  | Some st -> st
  | None ->
      let st = reap_blocking t.pid in
      t.status <- Some st;
      st

let kill t =
  if t.status = None then (
    try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (reap t)

let select workers timeout =
  let open_ = List.filter (fun w -> not (w.closed || w.eof)) workers in
  if open_ = [] then []
  else
    match Unix.select (List.map (fun w -> w.msg_r) open_) [] [] timeout with
    | ready, _, _ -> List.filter (fun w -> List.mem w.msg_r ready) open_
    | exception Unix.Unix_error (EINTR, _, _) -> []

let status_to_string = function
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "killed by signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped by signal %d" n

let ignoring_sigpipe f =
  let old =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  Fun.protect f ~finally:(fun () ->
      match old with
      | Some h -> ( try Sys.set_signal Sys.sigpipe h with Invalid_argument _ -> ())
      | None -> ())

let with_scratch_dir prefix f =
  let dir = Filename.temp_dir prefix "" in
  Fun.protect
    (fun () -> f dir)
    ~finally:(fun () ->
      try
        Array.iter
          (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
          (Sys.readdir dir);
        Unix.rmdir dir
      with Sys_error _ | Unix.Unix_error _ -> ())
