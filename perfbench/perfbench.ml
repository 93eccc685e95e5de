(* One benchmark run: one workload, one seed, a timed phase of whole
   rounds lasting at least [--seconds], then the output checks.  The
   last line of standard output is the JSON result.

   perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                 [--out DIR]

   With [--trace 0] the end-to-end metrics are printed; with
   [--trace 1] the per-layer metrics, measured by the layer ledger
   (see layers.ml), and the spans are written to DIR. *)

module W = Workloads

(* Set-ups made before the timed phase; they also warm the heap up.
   Every round adds one more set-up sample. *)
let setup_repetitions = 2

type run = {
  rounds : (int * float) list;  (** (events, execute seconds) per round *)
  references : float list;  (** {!Ledger.reference_seconds} before each round *)
  setups : float list;  (** set-up seconds of each round *)
  peak_rss_mb : float;  (** the high-water mark after the first round *)
  first : W.outcome option;  (** the first operation that passed *)
  outcomes : W.outcome list;  (** every one, kept by the traced run only *)
  attempted : int;
  failed : int;
  events : int;
  minor_words : float;
}

(* The process high-water mark.  It is read after the first round: the
   major heap keeps creeping up over later rounds, and their number
   depends on the host's speed. *)
let peak_rss_mb () =
  float_of_int (Cup_obs.Resource.snapshot ()).Cup_obs.Resource.peak_rss_bytes
  /. (1024. *. 1024.)

(* Whole rounds until [seconds] have passed.  Only [execute] counts
   toward the throughput; [prepare] is timed apart as the round's
   set-up, and the checks run outside both. *)
let timed_phase (w : W.t) ~seconds ~trace =
  let deadline = Ledger.now () +. seconds in
  let rounds = ref [] and setups = ref [] and references = ref [] in
  let outcomes = ref [] and first = ref None in
  let attempted = ref 0 and failed = ref 0 in
  let events = ref 0 and words = ref 0. and rss = ref 0. in
  while !rounds = [] || Ledger.now () < deadline do
    let ev = ref 0 and secs = ref 0. and prep = ref 0. in
    references := Ledger.reference_seconds () :: !references;
    Ledger.span "round" (fun () ->
        List.iter
          (fun (op : W.op) ->
            incr attempted;
            match
              Ledger.span op.label (fun () ->
                  let p, dp =
                    Ledger.span "prepare" (fun () ->
                        Ledger.timed (fun () -> op.prepare ~profile:trace))
                  in
                  prep := !prep +. dp;
                  let w0 = Gc.minor_words () in
                  let o, dt =
                    Ledger.span "execute" (fun () -> Ledger.timed p.execute)
                  in
                  let dw = Gc.minor_words () -. w0 in
                  o.check ();
                  (o, dt, dw))
            with
            | o, dt, dw ->
                ev := !ev + o.events;
                secs := !secs +. dt;
                words := !words +. dw;
                if !first = None then first := Some o;
                if trace then outcomes := o :: !outcomes
            | exception e ->
                incr failed;
                Printf.eprintf "perfbench: %s: %s failed: %s\n%!" w.name
                  op.label
                  (match e with
                  | W.Check_failed msg -> msg
                  | e -> Printexc.to_string e))
          w.ops);
    rounds := (!ev, !secs) :: !rounds;
    if !rss = 0. then rss := peak_rss_mb ();
    setups :=
      (match w.shape with
      | W.Runner_shape _ -> !prep
      | W.Scale_shape _ -> Ledger.span "setup" (fun () -> W.setup_seconds w))
      :: !setups;
    events := !events + !ev
  done;
  {
    rounds = List.rev !rounds;
    references = !references;
    setups = !setups;
    peak_rss_mb = !rss;
    first = !first;
    outcomes = List.rev !outcomes;
    attempted = !attempted;
    failed = !failed;
    events = !events;
    minor_words = !words;
  }

(* Host seconds per second of a host of the reference speed (see
   {!Ledger.reference_seconds}): the run's median reference time over
   its nominal. *)
let ref_factor (r : run) =
  Ledger.median r.references /. Ledger.reference_nominal

(* Engine events per host second of each round, the median over the
   rounds. *)
let events_per_s (r : run) =
  Ledger.median
    (List.map
       (fun (ev, secs) -> Ledger.per ~num:(float_of_int ev) ~den:secs)
       r.rounds)

(* The raw figures the rescaled metrics are made of.  They go on a line
   of their own before the result, so that repeat mode can set the
   spread of each raw figure beside that of the rescaled one. *)
let detail_line (r : run) ~setup_s =
  Printf.sprintf
    "{\"detail\": {\"events_per_s\": %.17g, \"setup_s\": %.17g, \
     \"reference_s\": %.17g}}"
    (events_per_s r) setup_s
    (Ledger.median r.references)

(* Checks made once per run, outside the timed phase.  Returns the
   2-shard result where there is one (the traced run reads its wall
   time). *)
let after_checks (w : W.t) (r : run) =
  match w.shape with
  | W.Runner_shape _ -> Ok None
  | W.Scale_shape cfg -> (
      let one =
        match r.first with
        | Some { scale = Some s; _ } -> s
        | _ -> Cup_sim.Scale.run cfg
      in
      let two =
        Ledger.span "Scale.run shards=2" (fun () ->
            Cup_sim.Scale.run { cfg with shards = 2 })
      in
      match
        String.equal (Cup_sim.Scale.summary one) (Cup_sim.Scale.summary two)
      with
      | true -> Ok (Some two)
      | false -> Error "Scale.summary differs between 1 and 2 shards")

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, value, unit) ->
         Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}"
           (Ledger.json_string name) value (Ledger.json_string unit))
       metrics)

let main ~workload ~seed ~seconds ~trace ~out_dir =
  let w = W.make workload ~seed ~out_dir in
  Ledger.enabled := trace;
  let setup_samples =
    List.init setup_repetitions (fun _ ->
        Ledger.span "setup" (fun () -> W.setup_seconds w))
  in
  let gc0 = Gc.quick_stat () in
  let r = timed_phase w ~seconds ~trace in
  let gc1 = Gc.quick_stat () in
  let after = after_checks w r in
  let failed =
    match after with
    | Ok _ -> r.failed
    | Error msg ->
        Printf.eprintf "perfbench: %s: %s\n%!" w.name msg;
        min r.attempted (r.failed + 1)
  in
  let setup_s = Ledger.median (setup_samples @ r.setups) in
  let metrics =
    if not trace then
      [
        ("events_per_ref_s", events_per_s r *. ref_factor r, "events/ref-s");
        ("setup_s", setup_s /. ref_factor r, "s");
        ("peak_rss_mb", r.peak_rss_mb, "MB");
        ( "alloc_words_per_event",
          Ledger.per ~num:r.minor_words ~den:(float_of_int r.events),
          "words/event" );
      ]
    else
      Layers.measure w
        {
          Layers.rounds = r.rounds;
          outcomes = r.outcomes;
          events = r.events;
          traced_events_per_ref_s = events_per_s r *. ref_factor r;
          two_shards = (match after with Ok two -> two | Error _ -> None);
          gc0;
          gc1;
          out_dir;
        }
  in
  if trace then begin
    let path =
      Filename.concat out_dir
        (Printf.sprintf "spans-%s-%d.jsonl" workload seed)
    in
    Ledger.write_spans path;
    Printf.eprintf "perfbench: %d spans -> %s\nself time by span (s):\n"
      (List.length !Ledger.spans) path;
    List.iter
      (fun (name, s) -> Printf.eprintf "  %-40s %10.4f\n" name s)
      (Ledger.self_seconds ())
  end;
  if not trace then print_endline (detail_line r ~setup_s);
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) r.attempted failed (json_metrics metrics);
  if failed > 0 then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and out_dir = ref "perfbench/_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics and spans");
      ("--out", Arg.Set_string out_dir, "DIR where traces and spans go");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload W.names) then begin
    Printf.eprintf "perfbench: --workload must be one of: %s\n"
      (String.concat ", " W.names);
    exit 2
  end;
  if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755;
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    ~out_dir:!out_dir
