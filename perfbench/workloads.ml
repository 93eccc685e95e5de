(* The four workloads, their operations and their output checks.

   An operation is one simulation run (a grid cell, the single run of
   a workload, or a run plus its trace analysis).  [prepare] does the
   set-up before the first event and returns the prepared run;
   [execute] is the timed phase; [check] runs afterwards, outside the
   timing, and raises [Check_failed] on any violated property.  Every
   check is a property of the method or a figure computed here, never
   a copy of an earlier output. *)

module Runner = Cup_sim.Runner
module Live = Runner.Live
module Scenario = Cup_sim.Scenario
module Scale = Cup_sim.Scale
module E = Cup_sim.Experiments
module Counters = Cup_metrics.Counters
module Engine = Cup_dess.Engine
module Policy = Cup_proto.Policy

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

type outcome = {
  events : int;
  runner : Runner.result option;
  scale : Scale.result option;
  check : unit -> unit;
}

type prepared = { execute : unit -> outcome; discard : unit -> unit }

type op = { label : string; prepare : profile:bool -> prepared }

(* Posted queries are a Poisson count: within five standard deviations
   of rate x duration. *)
let check_posted ~rate ~duration posted =
  let mean = rate *. duration in
  check
    (Float.abs (float_of_int posted -. mean) <= 5. *. sqrt mean)
    "posted %d queries, expected %.0f +- 5 sigma (%.0f)" posted mean
    (5. *. sqrt mean)

let check_runner ~fault_free (sc : Scenario.t) (r : Runner.result) =
  let c = r.counters in
  check
    (Counters.hits c + Counters.misses c = r.queries_posted)
    "hits %d + misses %d <> posted %d" (Counters.hits c) (Counters.misses c)
    r.queries_posted;
  check (Counters.in_flight c = 0) "%d messages in flight after the drain"
    (Counters.in_flight c);
  check
    (Counters.sent c
    = Counters.delivered c + Counters.transport_lost c + Counters.in_flight c)
    "sent %d <> delivered %d + lost %d + in flight %d" (Counters.sent c)
    (Counters.delivered c) (Counters.transport_lost c) (Counters.in_flight c);
  check
    (r.justified_updates <= r.tracked_updates)
    "justified %d > tracked %d" r.justified_updates r.tracked_updates;
  check_posted ~rate:sc.query_rate ~duration:sc.query_duration
    r.queries_posted;
  if fault_free then begin
    List.iter
      (fun (name, v) -> check (v = 0) "%s = %d in a fault-free run" name v)
      [
        ("lost messages", Counters.lost_messages c);
        ("duplicates", Counters.duplicated c);
        ("retries", Counters.retries c);
        ("repairs", Counters.repairs c);
        ("unreachable", Counters.unreachable c);
        ("transport lost", Counters.transport_lost c);
        ("dropped updates", Counters.dropped_updates c);
      ];
    (* Each forwarded query hop is answered by one first-time update
       hop down its reverse path. *)
    check
      (Counters.query_hops c = Counters.first_time_answer_hops c)
      "query hops %d <> first-time answering hops %d" (Counters.query_hops c)
      (Counters.first_time_answer_hops c)
  end

let runner_op ~label ~fault_free sc =
  let prepare ~profile =
    let live = Live.create sc in
    if profile then Engine.enable_profiling (Live.engine live);
    let execute () =
      let r = Live.finish live in
      {
        events = r.engine_events;
        runner = Some r;
        scale = None;
        check = (fun () -> check_runner ~fault_free sc r);
      }
    in
    { execute; discard = ignore }
  in
  { label; prepare }

(* {1 paper-table1} *)

(* The paper's Table 1 grid at Experiments' scaled size: the cut-off
   policies of Table 1 at every rate, plus the push-level sweep behind
   its "optimal push level" row, run in order.  The query window is
   cut from the paper's 3000 s to 600 s (and the drain from 1200 s to
   300 s) so that a round of the grid takes about two seconds and a
   run holds several rounds.

   The standard-caching row is left out: that policy does not
   coalesce queries, and the runner answers a node's repeated queries
   for one key with a single first-time update, so query hops exceed
   first-time answering hops on some seeds and not others (see
   README.md). *)
let table1_scenarios ~seed =
  let base =
    {
      (E.base_scenario E.Scaled) with
      seed;
      query_duration = 600.;
      drain = 300.;
    }
  in
  let cell policy rate =
    Scenario.with_policy { base with query_rate = rate } policy
  in
  let rates = E.rates E.Scaled in
  let table1 =
    [
      Policy.Linear 0.25;
      Policy.Linear 0.10;
      Policy.Linear 0.01;
      Policy.Linear 0.001;
      Policy.Logarithmic 0.5;
      Policy.Logarithmic 0.25;
      Policy.Logarithmic 0.10;
      Policy.Logarithmic 0.01;
      Policy.second_chance;
    ]
  in
  let levels = [ 0; 1; 2; 3; 4; 5; 6; 8; 10; 12; 14; 16; 20; 24 ] in
  List.concat_map
    (fun policy -> List.map (fun rate -> cell policy rate) rates)
    table1
  @ List.concat_map
      (fun rate ->
        List.map (fun level -> cell (Policy.Push_level level) rate) levels)
      rates

(* {1 faults-chord} *)

module Bw = Cup_obs.Binary_writer
module Sink = Cup_obs.Sink
module Audit = Cup_obs.Audit
module Analyzer = Cup_obs.Analyzer

(* A run with a binary trace, a metrics registry and the V1-V4 auditor
   attached, followed by the streaming analysis of its trace.  The
   trace file is overwritten by every operation. *)
let faults_op ~trace_path sc =
  let prepare ~profile =
    let live = Live.create sc in
    if profile then Engine.enable_profiling (Live.engine live);
    let writer = Bw.to_file trace_path in
    Live.set_metrics live (Some (Cup_metrics.Registry.create ()));
    let audit =
      Audit.create
        ~max_backlog:(max 1024 (16 * sc.Scenario.nodes * Scenario.total_keys sc))
        ~backlog:(fun () -> Live.justification_backlog live)
        ~tolerate_stale:true ~counters:(Live.counters live) ()
    in
    let sink = Sink.fanout [ Sink.binary writer; Audit.sink audit ] in
    Sink.attach live sink;
    let execute () =
      let r = Live.finish live in
      Audit.finish audit;
      Sink.close sink;
      let analyzer = Analyzer.Streaming.create () in
      let undecoded = ref 0 in
      Cup_obs.Trace_reader.iter trace_path ~f:(fun _ -> function
        | Cup_obs.Trace_reader.Event e -> Analyzer.Streaming.feed analyzer e
        | _ -> incr undecoded);
      let s = Analyzer.Streaming.finish analyzer in
      let check () =
        check_runner ~fault_free:false sc r;
        check (!undecoded = 0) "%d trace records did not decode" !undecoded;
        check (s.orphans = 0) "analyzer found %d orphan spans" s.orphans;
        check (s.unanswered = 0) "analyzer found %d unanswered queries"
          s.unanswered;
        check
          (s.events = Bw.records writer)
          "analyzer saw %d events, the writer recorded %d" s.events
          (Bw.records writer)
      in
      { events = r.engine_events; runner = Some r; scale = None; check }
    in
    let discard () =
      Sink.close sink;
      Sys.remove trace_path
    in
    { execute; discard }
  in
  { label = Printf.sprintf "faults-chord seed %d" sc.seed; prepare }

(* {1 scale-ring} *)

let ceil_log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let check_scale (cfg : Scale.config) (r : Scale.result) =
  let t = r.totals in
  check (t.posts = t.hits + t.misses) "posts %d <> hits %d + misses %d" t.posts
    t.hits t.misses;
  check (t.answered <= t.misses) "answered %d > misses %d" t.answered t.misses;
  check
    (t.query_hops = t.ft_answer_hops)
    "query hops %d <> first-time answering hops %d" t.query_hops
    t.ft_answer_hops;
  let bound = 2 * ceil_log2 cfg.nodes in
  check
    (t.latency_hops <= bound * t.answered)
    "mean miss latency %d/%d hops exceeds 2*ceil(log2 n) = %d" t.latency_hops
    t.answered bound;
  check_posted ~rate:cfg.rate ~duration:cfg.query_duration t.posts

let scale_op cfg =
  let prepare ~profile:_ =
    let execute () =
      let r = Scale.run cfg in
      { events = r.events; runner = None; scale = Some r;
        check = (fun () -> check_scale cfg r) }
    in
    { execute; discard = ignore }
  in
  { label = "Scale.run"; prepare }

(* {1 The workloads} *)

type shape =
  | Runner_shape of { probe : Scenario.t; fault_free : bool }
      (** [probe] is the scenario the traced run captures and slices:
          the workload's heaviest run *)
  | Scale_shape of Scale.config

type t = { name : string; ops : op list; shape : shape }

let zipf_scenario ~seed =
  {
    Scenario.default with
    seed;
    nodes = 1024;
    total_keys_override = Some 1024;
    replicas_per_key = 2;
    replica_lifetime = 60.;
    key_dist = `Zipf 0.9;
    query_rate = 100.;
    query_start = 60.;
    query_duration = 100.;
    drain = 60.;
  }

(* Message loss, reordering and duplication on a Chord ring.  Node
   crashes are left out: a query whose posting node crashes before the
   answer arrives is neither a hit nor a miss, and the analyzer reports
   it unanswered, on some seeds and not others (see README.md). *)
let faults_scenario ~seed =
  {
    Scenario.default with
    seed;
    nodes = 1024;
    overlay = Cup_overlay.Net.Chord;
    total_keys_override = Some 256;
    replica_lifetime = 60.;
    query_rate = 50.;
    query_start = 60.;
    query_duration = 60.;
    drain = 60.;
    loss = Some { drop = 0.02; jitter = 0.5 };
    reorder = Some { r_probability = 0.02; r_spread = 2. };
    duplication = Some { d_probability = 0.01 };
  }

let scale_config ~seed =
  {
    Scale.default with
    seed;
    nodes = 1_000_000;
    keys = 8192;
    rate = 10_000.;
    query_duration = 2.;
  }

let names = [ "paper-table1"; "zipf-catalog"; "faults-chord"; "scale-ring" ]

let make name ~seed ~out_dir =
  match name with
  | "paper-table1" ->
      let scs = table1_scenarios ~seed in
      let ops =
        List.mapi
          (fun i (sc : Scenario.t) ->
            runner_op
              ~label:
                (Printf.sprintf "cell %02d %s %g q/s" i
                   (Policy.to_string sc.node_config.policy)
                   sc.query_rate)
              ~fault_free:true sc)
          scs
      in
      let top = List.fold_left max 0. (E.rates E.Scaled) in
      let probe =
        Scenario.with_policy
          { (List.hd scs) with query_rate = top }
          Policy.second_chance
      in
      { name; ops; shape = Runner_shape { probe; fault_free = true } }
  | "zipf-catalog" ->
      let sc = zipf_scenario ~seed in
      {
        name;
        ops = [ runner_op ~label:"zipf-catalog run" ~fault_free:true sc ];
        shape = Runner_shape { probe = sc; fault_free = true };
      }
  | "faults-chord" ->
      let sc = faults_scenario ~seed in
      let trace_path = Filename.concat out_dir "faults-chord.ctrace" in
      {
        name;
        ops = [ faults_op ~trace_path sc ];
        shape = Runner_shape { probe = sc; fault_free = false };
      }
  | "scale-ring" ->
      let cfg = scale_config ~seed in
      { name; ops = [ scale_op cfg ]; shape = Scale_shape cfg }
  | other ->
      invalid_arg
        (Printf.sprintf "unknown workload %S (one of: %s)" other
           (String.concat ", " names))

(* One set-up of a whole round, in host seconds.  [Scale.run] has no
   seam between set-up and run, so its set-up is taken as a run of the
   same configuration cut to a single window: the ring, the node
   stores, the emission counters and the refresh schedule are built,
   and almost no events run. *)
let setup_seconds w =
  match w.shape with
  | Runner_shape _ ->
      List.fold_left
        (fun acc op ->
          let p, dt = Ledger.timed (fun () -> op.prepare ~profile:false) in
          p.discard ();
          acc +. dt)
        0. w.ops
  | Scale_shape cfg ->
      let cut =
        { cfg with query_start = 0.; query_duration = cfg.hop_delay; drain = 0. }
      in
      snd (Ledger.timed (fun () -> ignore (Scale.run cut)))
