(* In-memory span recorder for the traced run.

   Spans are recorded by the harness around each call it makes into a
   layer: name, start, end, parent and the row or request they belong to.
   Durations the program reports itself (telemetry phase timers, the
   daemon's per-reply [ms]) are attached as child spans with a duration
   but no position of their own.  Nothing is written until [write], so
   recording costs one allocation per span. *)

type t = {
  id : int;
  name : string;
  parent : int option;
  key : string;  (** row or request id *)
  start_ms : float option;  (** [None] for durations reported by the program *)
  dur_ms : float;
  attrs : (string * string) list;  (** values are JSON texts *)
}

let now_ms () = Int64.to_float (Specrepair.Engine.Session.now_ns ()) /. 1e6

let json_string s = Specrepair.Serve.Json.(to_string (Str s))
let spans : t list ref = ref []
let next_id = ref 0

let record ?parent ?start_ms ?(attrs = []) ~key name dur_ms =
  let id = !next_id in
  incr next_id;
  spans := { id; name; parent; key; start_ms; dur_ms; attrs } :: !spans;
  id

(* [with_span ~key name f] times [f ()]; the span is recorded even when
   [f] raises. *)
let with_span ?(attrs = fun _ -> []) ~key name f =
  let t0 = now_ms () in
  let finish result_attrs =
    ignore (record ~start_ms:t0 ~attrs:result_attrs ~key name (now_ms () -. t0))
  in
  match f () with
  | r ->
      finish (attrs r);
      r
  | exception e ->
      finish [ ("raised", json_string (Printexc.to_string e)) ];
      raise e

let to_json s =
  let opt_num = function
    | None -> "null"
    | Some f -> Printf.sprintf "%.6f" f
  in
  let fields =
    [
      ("id", string_of_int s.id);
      ("name", json_string s.name);
      ("parent", match s.parent with None -> "null" | Some p -> string_of_int p);
      ("key", json_string s.key);
      ("start_ms", opt_num s.start_ms);
      ("dur_ms", Printf.sprintf "%.6f" s.dur_ms);
    ]
    @ s.attrs
  in
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields)
  ^ "}"

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc (to_json s);
      output_char oc '\n')
    (List.rev !spans);
  close_out oc
