(* Shared plumbing: the run report perfbench/run.py reads, JSON value
   helpers, and fresh-process measurement. *)

let fields : (string * string) list ref = ref []

(* Report fields hold JSON texts; the last [set] of a key wins. *)
let set key value = fields := (key, value) :: List.remove_assoc key !fields
let num f = if Float.is_finite f then Printf.sprintf "%.6f" f else "null"
let int n = string_of_int n
let str = Span.json_string
let list f xs = "[" ^ String.concat "," (List.map f xs) ^ "]"
let obj kvs = "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) kvs) ^ "}"

let write_report path =
  let oc = open_out path in
  output_string oc (obj (List.rev !fields));
  output_char oc '\n';
  close_out oc

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let rec write_all fd b off len =
  if len > 0 then
    let k = Unix.write fd b off len in
    write_all fd b (off + k) (len - k)

let read_all fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k ->
        Buffer.add_subbytes buf chunk 0 k;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents buf

(* [in_child f] runs [f] in a forked copy of this process and returns the
   string it produced.  The study keeps process-global memo tables (domain
   oracles, AUnit suites), so a pass that must start from the state the
   parent has now — not the state an earlier pass left — runs here. *)
let in_child f =
  flush_all ();
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      (match f () with
      | s ->
          let b = Bytes.of_string s in
          write_all w b 0 (Bytes.length b);
          Unix._exit 0
      | exception e ->
          prerr_endline ("specbench: child failed: " ^ Printexc.to_string e);
          Unix._exit 3)
  | pid ->
      Unix.close w;
      let out = read_all r in
      Unix.close r;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> failwith "specbench: a measurement child failed");
      out

(* The text of a /proc file, read without channels: a thread may call
   this while the scheduler forks, and a forked worker must not inherit a
   locked channel.  "" if unreadable. *)
let proc_text path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ""
  | fd ->
      let text = try read_all fd with Unix.Unix_error _ -> "" in
      Unix.close fd;
      text

(* Peak resident set of a live process, in MB (VmHWM; 0 if unreadable). *)
let peak_rss_mb pid =
  Printf.sprintf "/proc/%d/status" pid
  |> proc_text |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         if String.starts_with ~prefix:"VmHWM:" line then
           Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
         else None)
  |> Option.value ~default:0.

(* The direct children of a live process. *)
let children pid =
  Printf.sprintf "/proc/%d/task/%d/children" pid pid
  |> proc_text |> String.trim |> String.split_on_char ' ' |> List.filter_map int_of_string_opt
