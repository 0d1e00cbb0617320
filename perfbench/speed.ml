(* Machine-speed probes.

   The benchmark shares its host with other tenants.  Each core's speed
   drifts by tens of percent over seconds, and the two cores drift
   independently: a fixed CPU loop timed back to back varies as much as
   the program does.  One probe process per core, pinned to it when
   [taskset] is available, runs a fixed reference computation every
   [period_s] and records its CPU and wall time.  The speed factor of a
   window is the nominal chunk time over the measured one (see run.py);
   a time multiplied by the factor reads as it would at nominal speed.
   The raw figures stay in the report. *)

let period_s = 0.02

(* Milliseconds of one [chunk] at nominal speed, measured on the machine
   the baseline was recorded on. *)
let nominal_ms = 0.9

(* Allocation, hashing and pointer chasing, like the program's own work. *)
let chunk () =
  let h = Hashtbl.create 64 in
  for i = 0 to 1_499 do
    Hashtbl.replace h (string_of_int (i * 7919 mod 1009)) [ i; i + 1 ]
  done;
  let l = Hashtbl.fold (fun k v acc -> (k, List.length v) :: acc) h [] in
  List.length (List.sort compare l)

(* One timed chunk: (cpu ms, wall ms). *)
let sample () =
  let c0 = Sys.time () and w0 = Span.now_ms () in
  ignore (Sys.opaque_identity (chunk ()));
  ((Sys.time () -. c0) *. 1000., Span.now_ms () -. w0)

let cores () =
  let ic = open_in "/proc/cpuinfo" in
  let rec go n =
    match input_line ic with
    | l -> go (if String.starts_with ~prefix:"processor" l then n + 1 else n)
    | exception End_of_file -> n
  in
  let n = go 0 in
  close_in ic;
  max 1 n

(* Pin process [pid] (and the children it forks from now on) to [core];
   false when [taskset] is missing or refuses. *)
let pin ~core pid = Sys.command (Printf.sprintf "taskset -p -c %d %d > /dev/null 2>&1" core pid) = 0

(* Let process [pid] run on every core again. *)
let unpin pid = Sys.command (Printf.sprintf "taskset -p -c 0-%d %d > /dev/null 2>&1" (cores () - 1) pid) = 0

type t = int list

let stop_requested = ref false

(* Fork one probe per core; probe [k] writes "<start ms> <cpu ms> <wall
   ms>" lines to [out]/speed.<k>.txt until SIGTERM.  With [~idle:true]
   the probes run under SCHED_IDLE, so they never delay the program on a
   core it wants; that suits a workload whose cores are mostly idle (a
   probe on a saturated core would get no samples). *)
let start ~idle ~out : t =
  flush_all ();
  List.init (cores ()) (fun core ->
      match Unix.fork () with
      | 0 ->
          Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop_requested := true));
          let pid = Unix.getpid () in
          ignore (pin ~core pid);
          if idle then ignore (Sys.command (Printf.sprintf "chrt -i -p 0 %d > /dev/null 2>&1" pid));
          let oc = open_out (Filename.concat out (Printf.sprintf "speed.%d.txt" core)) in
          while not !stop_requested do
            let t = Span.now_ms () in
            let cpu, wall = sample () in
            Printf.fprintf oc "%.3f %.6f %.6f\n" t cpu wall;
            if not idle then
              try Unix.sleepf period_s with Unix.Unix_error (Unix.EINTR, _, _) -> ()
          done;
          close_out oc;
          Unix._exit 0
      | pid -> pid)

let stop (t : t) =
  List.iter (fun pid -> Unix.kill pid Sys.sigterm) t;
  List.iter (fun pid -> ignore (Unix.waitpid [] pid)) t
