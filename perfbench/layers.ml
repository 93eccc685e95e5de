(* Per-layer metrics of the traced run.

   Layers are named after modules.  Each metric is taken from the
   benchmark's side of a public interface: engine profiling of the
   timed phase's own runs, [Live.run_until] slices, and replays of a
   stream captured from the workload (event times, next-hop lookups,
   protocol events, latency samples) through the layer in isolation.
   A layer the workload does not exercise reads 0. *)

module W = Workloads
module Live = W.Live
module Scenario = W.Scenario
module Scale = W.Scale
module Engine = W.Engine
module Counters = W.Counters
module Net = Cup_overlay.Net
module Trace = Cup_sim.Trace
module Rng = Cup_prng.Rng

type input = {
  rounds : (int * float) list;
  outcomes : W.outcome list;
  events : int;
  traced_events_per_ref_s : float;
  two_shards : Scale.result option;
  gc0 : Gc.stat;
  gc1 : Gc.stat;
  out_dir : string;
}

(* Median host nanoseconds per operation of [f], which performs
   [count] operations per call: calls repeat until 0.3 s have
   passed. *)
let ns_per_op ~count f =
  if count = 0 then 0.
  else begin
    let t_end = Ledger.now () +. 0.3 in
    let samples = ref [] and calls = ref 0 in
    while !calls = 0 || Ledger.now () < t_end do
      let (), dt = Ledger.timed f in
      samples := (dt *. 1e9 /. float_of_int count) :: !samples;
      incr calls
    done;
    Ledger.median !samples
  end

let median_of n f = Ledger.median (List.init n (fun _ -> f ()))

(* {1 Cup_dess: scheduler replay} *)

module type Queue = sig
  type 'a t

  val create : unit -> 'a t
  val push : 'a t -> time:float -> 'a -> Cup_dess.Event_heap.handle
  val pop : 'a t -> (float * 'a) option
  val is_empty : 'a t -> bool
end

(* Hold-model replay of a captured event-time stream: the queue is
   primed with [pending] events, then every later time is pushed as
   the earliest pending one is popped, then the queue drains.  Two
   operations per captured time. *)
module Replay (Q : Queue) = struct
  let run times ~pending =
    let q = Q.create () in
    let n = Array.length times in
    let p = max 1 (min pending n) in
    for i = 0 to p - 1 do
      ignore (Q.push q ~time:times.(i) ())
    done;
    for i = p to n - 1 do
      ignore (Q.pop q);
      ignore (Q.push q ~time:times.(i) ())
    done;
    while not (Q.is_empty q) do
      ignore (Q.pop q)
    done
end

module Heap_replay = Replay (Cup_dess.Event_heap)
module Calendar_replay = Replay (Cup_dess.Calendar_queue)

(* {1 Captures from the probe scenario} *)

let capture sc =
  Ledger.span "capture" (fun () ->
      let live = Live.create sc in
      let events = ref [] in
      Live.set_tracer live (Some (fun e -> events := e :: !events));
      let r = Live.finish live in
      (Array.of_list (List.rev !events), r))

(* Host ns/event over 20 [run_until] slices of the query window; the
   last quarter's cost over the first quarter's, and the
   justification backlog when querying stops. *)
let sliced (sc : Scenario.t) =
  Ledger.span "sliced" (fun () ->
      let live = Live.create sc in
      let engine = Live.engine live in
      let q0 = sc.query_start and q1 = sc.query_start +. sc.query_duration in
      Live.run_until live q0;
      let slices = 20 in
      let cost =
        Array.init slices (fun i ->
            let until =
              q0 +. ((q1 -. q0) *. float_of_int (i + 1) /. float_of_int slices)
            in
            let e0 = Engine.events_executed engine in
            let (), dt = Ledger.timed (fun () -> Live.run_until live until) in
            (dt, Engine.events_executed engine - e0))
      in
      let backlog = Live.justification_backlog live in
      ignore (Live.finish live);
      let quarter lo =
        let secs = ref 0. and evs = ref 0 in
        for i = lo to lo + (slices / 4) - 1 do
          let dt, ev = cost.(i) in
          secs := !secs +. dt;
          evs := !evs + ev
        done;
        Ledger.per ~num:!secs ~den:(float_of_int !evs)
      in
      let early = quarter 0 and late = quarter (slices - (slices / 4)) in
      (Ledger.per ~num:late ~den:early, backlog))

(* {1 Cup_overlay} *)

let fresh_net (sc : Scenario.t) ~route_cache ~seed =
  Net.create ~rng:(Rng.create ~seed) ~route_cache
    ~churn_lookups:sc.route_cache_churn_lookups ~kind:sc.overlay ~n:sc.nodes ()

let overlay_metrics (sc : Scenario.t) events =
  let lookups =
    Array.of_list
      (Array.fold_right
         (fun e acc ->
           match e with
           | Trace.Query_forwarded { from_; key; _ } -> (from_, key) :: acc
           | _ -> acc)
         events [])
  in
  let next_hop_ns ~route_cache =
    Ledger.span
      (if route_cache then "Net.next_hop cached" else "Net.next_hop uncached")
      (fun () ->
        median_of 3 (fun () ->
            let net = fresh_net sc ~route_cache ~seed:sc.seed in
            let live =
              Array.of_list
                (List.filter
                   (fun (n, _) -> Net.is_alive net n)
                   (Array.to_list lookups))
            in
            let (), dt =
              Ledger.timed (fun () ->
                  Array.iter (fun (n, k) -> ignore (Net.next_hop net n k)) live)
            in
            Ledger.per ~num:(dt *. 1e9) ~den:(float_of_int (Array.length live))))
  in
  let cached = next_hop_ns ~route_cache:true in
  let uncached = next_hop_ns ~route_cache:false in
  let build_ms =
    Ledger.span "Net.create" (fun () ->
        median_of 5 (fun () ->
            let _, dt =
              Ledger.timed (fun () ->
                  fresh_net sc ~route_cache:sc.route_cache ~seed:sc.seed)
            in
            dt *. 1e3))
  in
  (* Alternate leaves and joins on one net of the workload's size. *)
  let net = fresh_net sc ~route_cache:sc.route_cache ~seed:sc.seed in
  let rng = Rng.create ~seed:(sc.seed + 1) in
  let leaves = ref [] and joins = ref [] in
  for _ = 1 to 3 do
    let ids = Array.of_list (Net.node_ids net) in
    let victim = ids.(Rng.int rng (Array.length ids)) in
    let _, dl =
      Ledger.span "Net.leave" (fun () ->
          Ledger.timed (fun () -> Net.leave net victim))
    in
    let _, dj =
      Ledger.span "Net.join_random" (fun () ->
          Ledger.timed (fun () -> Net.join_random net ~rng))
    in
    leaves := (dl *. 1e3) :: !leaves;
    joins := (dj *. 1e3) :: !joins
  done;
  (cached, uncached, build_ms, Ledger.median !leaves, Ledger.median !joins)

let ring_next_hop_ns (cfg : Scale.config) =
  Ledger.span "Ring.next_hop" (fun () ->
      let ring = Cup_overlay.Ring.create ~n:cfg.nodes in
      let rng = Rng.create ~seed:cfg.seed in
      let routes =
        Array.init 20_000 (fun _ ->
            ( Rng.int rng cfg.nodes,
              Cup_overlay.Ring.owner ring (Rng.int rng cfg.keys) ))
      in
      let hops = ref 0 in
      Array.iter
        (fun (from, target) ->
          hops := !hops + Cup_overlay.Ring.path_length ring ~from ~target)
        routes;
      ns_per_op ~count:!hops (fun () ->
          Array.iter
            (fun (from, target) ->
              let rec go node =
                match Cup_overlay.Ring.next_hop ring ~node ~target with
                | None -> ()
                | Some next -> go next
              in
              go from)
            routes))

(* {1 Cup_obs and Cup_metrics: replays of the captured events} *)

module Bw = Cup_obs.Binary_writer

type obs = {
  bytes_per_event : float;
  encode_ns : float;
  stalls : int;
  audit_ns : float;
  analyze_ns : float;
  histogram_add_ns : float;
}

(* Encode [records] through a binary writer into [path]; the writer is
   closed, the file kept for the caller. *)
let encode ~path ~name emit records =
  let writer = Bw.to_file path in
  let (), dt =
    Ledger.span name (fun () ->
        Ledger.timed (fun () -> Array.iter (emit writer) records))
  in
  Bw.close writer;
  {
    bytes_per_event =
      Ledger.per
        ~num:(float_of_int (Bw.bytes_written writer))
        ~den:(float_of_int (Bw.records writer));
    encode_ns =
      Ledger.per ~num:(dt *. 1e9) ~den:(float_of_int (Array.length records));
    stalls = Bw.stalls writer;
    audit_ns = 0.;
    analyze_ns = 0.;
    histogram_add_ns = 0.;
  }

let obs_metrics ~out_dir ~tolerate_stale (r : W.Runner.result) events =
  let n = Array.length events in
  let path = Filename.concat out_dir "replay.ctrace" in
  let written =
    encode ~path ~name:"Binary_writer.emit_event" Bw.emit_event events
  in
  let audit_ns =
    Ledger.span "Audit.observe" (fun () ->
        ns_per_op ~count:n (fun () ->
            let a =
              Cup_obs.Audit.create ~tolerate_stale ~counters:r.counters ()
            in
            Array.iter (Cup_obs.Audit.observe a) events;
            Cup_obs.Audit.finish a))
  in
  let summary = ref None in
  let analyze_ns =
    Ledger.span "Analyzer.Streaming" (fun () ->
        ns_per_op ~count:n (fun () ->
            let an = Cup_obs.Analyzer.Streaming.create () in
            Cup_obs.Trace_reader.iter path ~f:(fun _ -> function
              | Cup_obs.Trace_reader.Event e ->
                  Cup_obs.Analyzer.Streaming.feed an e
              | _ -> ());
            summary := Some (Cup_obs.Analyzer.Streaming.finish an)))
  in
  Sys.remove path;
  let samples =
    match !summary with Some s -> s.miss_latencies | None -> [||]
  in
  let histogram_add_ns =
    Ledger.span "Registry.observe" (fun () ->
        ns_per_op ~count:(Array.length samples) (fun () ->
            let reg = Cup_metrics.Registry.create () in
            let h = Cup_metrics.Registry.histogram reg "replayed_latency" in
            Array.iter (Cup_metrics.Registry.observe h) samples))
  in
  { written with audit_ns; analyze_ns; histogram_add_ns }

(* The scale runner emits its own records: only the codec and writer
   apply.  The first 200k records of one run are replayed. *)
let scale_obs_metrics ~out_dir cfg =
  let cap = 200_000 in
  let records = ref [] and kept = ref 0 in
  ignore
    (Ledger.span "capture" (fun () ->
         Scale.run
           ~tracer:(fun ev ->
             if !kept < cap then begin
               records := ev :: !records;
               incr kept
             end)
           cfg));
  let path = Filename.concat out_dir "replay.ctrace" in
  let written =
    encode ~path ~name:"Binary_writer.emit_scale" Bw.emit_scale
      (Array.of_list (List.rev !records))
  in
  Sys.remove path;
  written

(* {1 Runner handlers: engine profiling of the timed phase} *)

let merged_profile outcomes =
  let by_label = Hashtbl.create 16 and high_water = ref 0 in
  List.iter
    (fun (o : W.outcome) ->
      match o.runner with
      | Some { profile = Some p; _ } ->
          high_water := max !high_water p.heap_high_water;
          List.iter
            (fun (label, (s : Engine.label_stats)) ->
              let calls, secs =
                Option.value ~default:(0, 0.) (Hashtbl.find_opt by_label label)
              in
              Hashtbl.replace by_label label
                (calls + s.calls, secs +. s.host_seconds))
            p.by_label
      | _ -> ())
    outcomes;
  (by_label, !high_water)

let per_call by_label label ~scale =
  match Hashtbl.find_opt by_label label with
  | Some (calls, secs) when calls > 0 -> secs *. scale /. float_of_int calls
  | _ -> 0.

(* {1 Cup_parallel} *)

let pool2_speedup (w : W.t) =
  let run_op (op : W.op) = ignore ((op.prepare ~profile:false).execute ()) in
  let (), one =
    Ledger.span "Pool jobs=1" (fun () ->
        Ledger.timed (fun () -> List.iter run_op w.ops))
  in
  (* Spans are recorded by the calling domain only. *)
  let (), two =
    Ledger.span "Pool jobs=2" (fun () ->
        Ledger.timed (fun () ->
            Cup_parallel.Pool.with_pool ~jobs:2 (fun pool ->
                ignore (Cup_parallel.Pool.map pool run_op w.ops))))
  in
  Ledger.per ~num:one ~den:two

(* {1 All of them} *)

(* Every per-layer metric with its unit, in print order. *)
let metrics =
  [
    ("trace.events_per_ref_s", "events/ref-s");
    ("dess.heap_ns_per_op", "ns/op");
    ("dess.calendar_ns_per_op", "ns/op");
    ("dess.pending_high_water", "count");
    ("overlay.next_hop_cached_ns", "ns/call");
    ("overlay.next_hop_uncached_ns", "ns/call");
    ("overlay.route_cache_hit_ratio", "ratio");
    ("overlay.leave_ms", "ms");
    ("overlay.join_ms", "ms");
    ("overlay.build_ms", "ms");
    ("overlay.ring_next_hop_ns", "ns/call");
    ("runner.deliver_update_ns", "ns/call");
    ("runner.deliver_query_ns", "ns/call");
    ("runner.pump_query_ns", "ns/call");
    ("runner.repair_check_ns", "ns/call");
    ("runner.late_over_early_ratio", "ratio");
    ("proto.subscriptions", "count");
    ("metrics.histogram_add_ns", "ns/call");
    ("obs.trace_bytes_per_event", "bytes/event");
    ("obs.encode_ns_per_event", "ns/event");
    ("obs.writer_stalls", "count");
    ("obs.audit_ns_per_event", "ns/event");
    ("obs.analyze_ns_per_event", "ns/event");
    ("scale.ns_per_window", "ns/window");
    ("scale.live_slots", "count");
    ("scale.shard2_speedup", "ratio");
    ("parallel.pool2_speedup", "ratio");
    ("gc.minor_collections", "count/round");
    ("gc.promoted_words_per_event", "words/event");
    ("gc.major_collections", "count/round");
  ]

let obs_values (o : obs) =
  [
    ("metrics.histogram_add_ns", o.histogram_add_ns);
    ("obs.trace_bytes_per_event", o.bytes_per_event);
    ("obs.encode_ns_per_event", o.encode_ns);
    ("obs.writer_stalls", float_of_int o.stalls);
    ("obs.audit_ns_per_event", o.audit_ns);
    ("obs.analyze_ns_per_event", o.analyze_ns);
  ]

let runner_layers (w : W.t) (i : input) ~probe ~fault_free =
  let by_label, high_water = merged_profile i.outcomes in
  let events, probe_result = capture probe in
  let times = Array.map Trace.event_time events in
  let replay name run =
    Ledger.span name (fun () ->
        ns_per_op ~count:(2 * Array.length times) (fun () ->
            run times ~pending:high_water))
  in
  let heap_ns = replay "Event_heap replay" Heap_replay.run in
  let calendar_ns = replay "Calendar_queue replay" Calendar_replay.run in
  let cached, uncached, build_ms, leave_ms, join_ms =
    overlay_metrics probe events
  in
  let hits, misses =
    List.fold_left
      (fun (h, m) (o : W.outcome) ->
        match o.runner with
        | Some r ->
            ( h + Counters.route_cache_hits r.counters,
              m + Counters.route_cache_misses r.counters )
        | None -> (h, m))
      (0, 0) i.outcomes
  in
  let late_over_early, backlog = sliced probe in
  let obs =
    obs_metrics ~out_dir:i.out_dir ~tolerate_stale:(not fault_free)
      probe_result events
  in
  let ns label = per_call by_label label ~scale:1e9 in
  [
    ("dess.heap_ns_per_op", heap_ns);
    ("dess.calendar_ns_per_op", calendar_ns);
    ("dess.pending_high_water", float_of_int high_water);
    ("overlay.next_hop_cached_ns", cached);
    ("overlay.next_hop_uncached_ns", uncached);
    ( "overlay.route_cache_hit_ratio",
      Ledger.per ~num:(float_of_int hits) ~den:(float_of_int (hits + misses))
    );
    ("overlay.leave_ms", leave_ms);
    ("overlay.join_ms", join_ms);
    ("overlay.build_ms", build_ms);
    ("runner.deliver_update_ns", ns "deliver.update");
    ("runner.deliver_query_ns", ns "deliver.query");
    ("runner.pump_query_ns", ns "pump.query");
    ("runner.repair_check_ns", ns "repair.check");
    ("runner.late_over_early_ratio", late_over_early);
    ("proto.subscriptions", float_of_int backlog);
  ]
  @ obs_values obs
  @
  (* A round of several runs can fan out over the pool. *)
  match w.ops with
  | _ :: _ :: _ -> [ ("parallel.pool2_speedup", pool2_speedup w) ]
  | _ -> []

let scale_layers (i : input) (cfg : Scale.config) =
  let one_shard = Ledger.median (List.map snd i.rounds) in
  (match i.outcomes with
  | { scale = Some s; _ } :: _ ->
      [
        ( "scale.ns_per_window",
          Ledger.per ~num:(one_shard *. 1e9) ~den:(float_of_int s.windows) );
        ("scale.live_slots", float_of_int s.live_slots);
      ]
  | _ -> [])
  @ (match i.two_shards with
    | Some two ->
        [ ("scale.shard2_speedup", Ledger.per ~num:one_shard ~den:two.wallclock) ]
    | None -> [])
  (* The ring keeps no per-node state, so it has no build to time and
     [overlay.build_ms] reads 0 here. *)
  @ [ ("overlay.ring_next_hop_ns", ring_next_hop_ns cfg) ]
  @ obs_values (scale_obs_metrics ~out_dir:i.out_dir cfg)

(* The per-layer metrics of one traced run; a layer the workload does
   not call reads 0. *)
let measure (w : W.t) (i : input) =
  let nrounds = float_of_int (List.length i.rounds) in
  let measured =
    [
      ("trace.events_per_ref_s", i.traced_events_per_ref_s);
      ( "gc.minor_collections",
        float_of_int (i.gc1.minor_collections - i.gc0.minor_collections)
        /. nrounds );
      ( "gc.promoted_words_per_event",
        Ledger.per
          ~num:(i.gc1.promoted_words -. i.gc0.promoted_words)
          ~den:(float_of_int i.events) );
      ( "gc.major_collections",
        float_of_int (i.gc1.major_collections - i.gc0.major_collections)
        /. nrounds );
    ]
    @
    match w.shape with
    | W.Runner_shape { probe; fault_free } ->
        runner_layers w i ~probe ~fault_free
    | W.Scale_shape cfg -> scale_layers i cfg
  in
  List.map
    (fun (name, unit) ->
      (name, Option.value ~default:0. (List.assoc_opt name measured), unit))
    metrics
