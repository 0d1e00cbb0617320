(* The checkpoint manifest: a one-line JSON file recording which row
   ranges of a streamed run are complete.  Writes are atomic
   (write-then-rename); reads are strict (anything we would not have
   written ourselves raises [Corrupt]). *)

type t = {
  fingerprint : string;
  total : int;
  completed : (int * int) list;
}

exception Corrupt of string

let version = 1

let path ~dir = Filename.concat dir "manifest.json"

let create ~fingerprint ~total = { fingerprint; total; completed = [] }

(* {2 Ranges} *)

let rows_done t =
  List.fold_left (fun n (lo, hi) -> n + (hi - lo)) 0 t.completed

let is_complete t = rows_done t = t.total

let add t ~lo ~hi =
  if lo < 0 || hi > t.total || lo >= hi then
    invalid_arg
      (Printf.sprintf "Manifest.add: bad range [%d, %d) of %d" lo hi t.total);
  (* insert sorted; ranges stay 1:1 with the result shards on disk, so
     no coalescing — [shard_<lo>_<hi>.res] exists iff [(lo, hi)] does *)
  let rec insert = function
    | [] -> [ (lo, hi) ]
    | (a, b) :: rest when hi <= a -> (lo, hi) :: (a, b) :: rest
    | (a, b) :: rest when b <= lo -> (a, b) :: insert rest
    | (a, b) :: _ ->
        invalid_arg
          (Printf.sprintf "Manifest.add: [%d, %d) overlaps completed [%d, %d)"
             lo hi a b)
  in
  { t with completed = insert t.completed }

let pending t =
  let rec gaps cursor = function
    | [] -> if cursor < t.total then [ (cursor, t.total) ] else []
    | (lo, hi) :: rest ->
        if cursor < lo then (cursor, lo) :: gaps hi rest else gaps hi rest
  in
  gaps 0 t.completed

(* {2 Serialization}

   Reads are strict about the shape: exactly the four keys [to_json]
   writes, the current version, an integer total and two-integer ranges.
   Anything else is [Corrupt]. *)

module Json = Specrepair_base.Json

let to_json t =
  Json.to_string
    (Json.Obj
       [
         ("specrepair_manifest", Json.int version);
         ("fingerprint", Json.Str t.fingerprint);
         ("total", Json.int t.total);
         ( "completed",
           Json.List
             (List.map (fun (lo, hi) -> Json.List [ Json.int lo; Json.int hi ]) t.completed)
         );
       ])

let save ~dir t =
  let final = path ~dir in
  let tmp = final ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (to_json t);
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp final

(* Every manifest starts with its version key, so a file that is not a
   manifest at all is reported as such rather than as a JSON error. *)
let magic = "{\"specrepair_manifest\":"

let keys = List.sort compare [ "specrepair_manifest"; "fingerprint"; "total"; "completed" ]

let of_json text =
  let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt in
  if not (String.starts_with ~prefix:magic text) then
    corrupt "expected %S (at byte 0)" magic;
  let v =
    match Json.parse text with
    | Ok v -> v
    | Error (pos, msg) -> corrupt "%s (at byte %d)" msg pos
  in
  let int_field k =
    match Json.mem_int k v with
    | Some n -> n
    | None -> corrupt "field %S is not an integer" k
  in
  let found = int_field "specrepair_manifest" in
  if found <> version then
    corrupt "unknown manifest version %d (want %d)" found version;
  (match v with
  | Json.Obj fields when List.sort compare (List.map fst fields) = keys -> ()
  | _ -> corrupt "expected exactly the keys %s" (String.concat ", " keys));
  let fingerprint =
    match Json.mem_str "fingerprint" v with
    | Some s -> s
    | None -> corrupt "field \"fingerprint\" is not a string"
  in
  let total = int_field "total" in
  if total < 0 then corrupt "negative total";
  let range = function
    | Json.List [ lo; hi ] -> (
        match (Json.to_int lo, Json.to_int hi) with
        | Some lo, Some hi -> (lo, hi)
        | _ -> corrupt "range bounds must be integers")
    | _ -> corrupt "a range must be a list of two integers"
  in
  let completed =
    match Option.bind (Json.member "completed" v) Json.to_list with
    | Some ranges -> List.map range ranges
    | None -> corrupt "field \"completed\" is not a list"
  in
  let rec check prev = function
    | [] -> ()
    | (lo, hi) :: rest ->
        if lo < 0 || hi > total || lo >= hi then
          corrupt "malformed range [%d, %d) of %d" lo hi total;
        if lo < prev then
          corrupt "ranges unsorted or overlapping at [%d, %d)" lo hi;
        check hi rest
  in
  check 0 completed;
  { fingerprint; total; completed }

let load ~dir =
  let p = path ~dir in
  let text =
    match open_in_bin p with
    | exception Sys_error msg -> raise (Corrupt ("cannot read manifest: " ^ msg))
    | ic ->
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
  in
  try of_json text
  with Corrupt msg -> raise (Corrupt (Printf.sprintf "%s: %s" p msg))

let () =
  Printexc.register_printer (function
    | Corrupt msg -> Some ("Manifest.Corrupt: " ^ msg)
    | _ -> None)
