(* Tests for the worker-process supervisor: line framing across read
   buffers, sibling fd hygiene, kill/reap of externally killed workers,
   loud crashes, and the monotonic silence clock. *)

module Proc = Specrepair_base.Proc

(* Collect message lines until [n] have arrived (or fail after ~10 s). *)
let read_lines p n =
  let rec go acc tries =
    if List.length acc >= n then acc
    else if tries = 0 then Alcotest.failf "only %d of %d lines arrived" (List.length acc) n
    else
      match Proc.select [ p ] 0.1 with
      | [] -> go acc (tries - 1)
      | _ -> (
          match Proc.read p with
          | `Lines ls -> go (acc @ ls) tries
          | `Eof -> Alcotest.failf "EOF after %d of %d lines" (List.length acc) n)
  in
  go [] 100

let echo ~recv ~send =
  let rec loop () =
    match recv () with
    | None -> ()
    | Some line ->
        send line;
        loop ()
  in
  loop ()

let test_framing () =
  let p = Proc.spawn echo in
  Fun.protect
    ~finally:(fun () -> Proc.kill p)
    (fun () ->
      (* far larger than the 64 KiB read buffer: many reads, one line *)
      let big = String.init (200 * 1024) (fun i -> Char.chr (97 + (i mod 26))) in
      Alcotest.(check bool) "sent" true (Proc.send p big);
      (match read_lines p 1 with
      | [ line ] -> Alcotest.(check bool) "one 200 KiB line" true (line = big)
      | ls -> Alcotest.failf "%d lines for one send" (List.length ls));
      ignore (Proc.send p "a\nb");
      Alcotest.(check (list string))
        "embedded newline flattened" [ "a b" ] (read_lines p 1))

let test_sibling_fds_closed () =
  (* each worker waits for EOF on its commands; if a sibling forked later
     still held the parent's end of that pipe, EOF would never come and
     the alarm would kill the worker instead *)
  let body ~recv ~send:_ =
    ignore (Unix.alarm 5);
    while recv () <> None do () done
  in
  let a = Proc.spawn body in
  let b = Proc.spawn body in
  let c = Proc.spawn body in
  Fun.protect
    ~finally:(fun () -> List.iter Proc.kill [ a; b; c ])
    (fun () ->
      let status = Proc.reap a in
      Alcotest.(check string)
        "first worker saw EOF while two siblings live" "exited 0"
        (Proc.status_to_string status);
      Alcotest.(check bool) "siblings still running" true
        (Proc.exited b = None && Proc.exited c = None))

let no_zombie pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | exception Unix.Unix_error (ECHILD, _, _) -> true
  | _ -> false

let test_external_kill () =
  let p = Proc.spawn (fun ~recv ~send:_ -> ignore (recv ())) in
  Unix.kill (Proc.pid p) Sys.sigkill;
  let rec poll tries =
    match Proc.exited p with
    | Some st -> st
    | None when tries > 0 ->
        Unix.sleepf 0.01;
        poll (tries - 1)
    | None -> Alcotest.fail "killed worker never reported exited"
  in
  (match poll 1000 with
  | Unix.WSIGNALED n -> Alcotest.(check int) "SIGKILL" Sys.sigkill n
  | st -> Alcotest.failf "expected WSIGNALED, got %s" (Proc.status_to_string st));
  Proc.kill p;
  Proc.kill p;
  Alcotest.(check bool) "reaped, no zombie" true (no_zombie (Proc.pid p));
  Alcotest.(check bool) "send to a reaped worker fails" false (Proc.send p "x");
  (* and a live worker killed twice *)
  let q = Proc.spawn (fun ~recv ~send:_ -> ignore (recv ())) in
  Proc.kill q;
  Proc.kill q;
  Alcotest.(check bool) "live worker killed twice, no zombie" true
    (no_zombie (Proc.pid q))

let test_crash_is_loud () =
  let log = Filename.temp_file "specrepair_proc_" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove log)
    (fun () ->
      let p =
        Proc.spawn (fun ~recv:_ ~send:_ ->
            let fd = Unix.openfile log [ O_WRONLY; O_TRUNC ] 0o644 in
            Unix.dup2 fd Unix.stderr;
            failwith "boom")
      in
      Alcotest.(check string) "exit 2" "exited 2" (Proc.status_to_string (Proc.reap p));
      let ic = open_in log in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let contains s sub =
        let n = String.length sub in
        let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) ("boom on stderr: " ^ text) true (contains text "boom"))

let test_silence_clock () =
  let p = Proc.spawn echo in
  Fun.protect
    ~finally:(fun () -> Proc.kill p)
    (fun () ->
      Unix.sleepf 0.3;
      let quiet = Proc.silent_ms p in
      Alcotest.(check bool)
        (Printf.sprintf "silence grows while quiet (%.0f ms)" quiet)
        true (quiet >= 250.);
      ignore (Proc.send p "ping");
      ignore (read_lines p 1);
      let after = Proc.silent_ms p in
      Alcotest.(check bool)
        (Printf.sprintf "silence resets on a line (%.0f ms)" after)
        true
        (after < quiet && after < 250.))

let () =
  Proc.ignoring_sigpipe (fun () ->
      Alcotest.run "proc"
        [
          ( "proc",
            [
              Alcotest.test_case "long lines and embedded newlines" `Quick test_framing;
              Alcotest.test_case "sibling fds closed in children" `Quick
                test_sibling_fds_closed;
              Alcotest.test_case "external sigkill, double kill" `Quick
                test_external_kill;
              Alcotest.test_case "crash prints to stderr, exits 2" `Quick
                test_crash_is_loud;
              Alcotest.test_case "monotonic silence clock" `Quick test_silence_clock;
            ] );
        ])
