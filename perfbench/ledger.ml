(* The outside-in layer ledger and the small statistics the benchmark
   reports.

   Spans are recorded by the benchmark's own code around its calls
   into the cup libraries: name, start, end and the enclosing span.
   They are kept in memory while the run executes and written out as
   JSON lines when it ends.  With the ledger disabled (the untraced
   run that measures the end-to-end metrics) [span] is a plain call. *)

let now = Unix.gettimeofday

type span = {
  id : int;
  parent : int;  (** [0] for a root span *)
  name : string;
  start : float;
  stop : float;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 1
let open_spans : int list ref = ref []
let epoch = now ()

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> 0 in
    open_spans := id :: !open_spans;
    let start = now () in
    let close () =
      let stop = now () in
      open_spans := List.tl !open_spans;
      spans := { id; parent; name; start; stop } :: !spans
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Self time of every span name: its duration minus the part its
   direct children cover. *)
let self_seconds () =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)
          +. (s.stop -. s.start)))
    !spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self =
        s.stop -. s.start
        -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id)
      in
      Hashtbl.replace by_name s.name
        (Option.value ~default:0. (Hashtbl.find_opt by_name s.name) +. self))
    !spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%s,\"start_s\":%.9f,\"end_s\":%.9f}\n"
        s.id s.parent (json_string s.name) (s.start -. epoch)
        (s.stop -. epoch))
    (List.rev !spans);
  close_out oc

(* {1 Statistics} *)

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list (List.sort compare xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let per ~num ~den = if den = 0. then 0. else num /. den

(* {1 Host speed} *)

(* The host gives this process a speed that drifts by a quarter or
   more in phases of seconds to minutes (CPU time moves with wall
   time, so it is not time stolen by other processes).
   [reference_seconds] times a fixed piece of work on the standard
   library alone - small allocations, hashing, a hash table that fits
   in the L2 cache - so a throughput can be rescaled to a host on which
   that work takes [reference_nominal] seconds.  The cup libraries play
   no part in it, so a change to them that leaves the loop's own time
   alone moves the rescaled throughput as it moves the raw one.  The
   loop follows the host's compute speed, not its memory system: the
   workloads whose state outgrows the caches drift with the memory
   load of other tenants, which the loop does not see (README.md,
   Noise floor and bounds). *)
let reference_nominal = 0.04

let reference_seconds () =
  let t0 = now () in
  let h = Hashtbl.create 4096 in
  let acc = ref 0 in
  for i = 0 to 299_999 do
    let k = (i * 7919) land 8191 in
    (match Hashtbl.find_opt h k with
    | Some (n :: _ as l) when n < 4 -> Hashtbl.replace h k ((n + 1) :: l)
    | Some _ -> Hashtbl.replace h k [ 0 ]
    | None -> Hashtbl.add h k [ 0 ]);
    acc := !acc + k
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0
