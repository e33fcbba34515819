(* serve_loopback: `ses serve` as a child process with CLI defaults, fed
   a chemotherapy stream over loopback TCP by an open-loop generator.

   Set-up spawns the server and registers three queries (c→d, c→b,
   q1_complete). A fixed-rate phase then sends BATCH frames on a fixed
   schedule, each stamped with its due time, registering a fourth query
   after the first frame and unregistering it before the last, so
   runtime registration runs beside the static plan. Match latency is
   measured here: from the due time of the frame carrying a match's
   trigger event to the arrival of its MATCH line. A closed saturation
   phase then sends the rest as fast as backpressure allows and ends
   with the final UNREGISTERs; throughput is measured there. *)

open Ses_event
open Ses_core
open Perfbench
open Common
module Protocol = Ses_server.Protocol
module Runtime = Ses_server.Runtime

let tenant = "bench"

let static_queries =
  [
    ("cd", "PATTERN (c) -> (d) WHERE c.L = 'C' AND d.L = 'D' AND c.ID = d.ID WITHIN 11 DAYS");
    ("cb", "PATTERN (c) -> (b) WHERE c.L = 'C' AND b.L = 'B' AND c.ID = b.ID WITHIN 11 DAYS");
    ( "q1c",
      String.concat " "
        (String.split_on_char '\n' (Ses_lang.Lang.to_query Ses_harness.Queries.q1_complete)) );
  ]

(* The late query runs as an independent executor beside the shared
   plan, and its matches — like q1_complete's — surface one frame after
   their trigger (batch-deferred expiry), while c→d and c→b surface in
   the trigger's own frame. Latency is therefore two clusters a frame
   interval apart. Consecutive prednisone days match often and cheaply,
   so the deferred cluster holds a clear majority and the median sits
   inside it instead of flipping between clusters from run to run. *)
let late_query =
  ("pp", "PATTERN (p) -> (q) WHERE p.L = 'P' AND q.L = 'P' AND p.ID = q.ID WITHIN 2 DAYS")

let frame_rows = 128

(* Offered load of the fixed-rate phase, events per second: a frame
   every 32 ms. *)
let rate = 4000.

let interval = float_of_int frame_rows /. rate

(* Stream size per measured second: the fixed phase takes half the
   run, the saturation phase gets the rest of the stream. *)
let patients_per_second = 45

(* --- the client byte stream ------------------------------------------ *)

type action =
  | Setup of string
  | Frame of int * string  (* frame index, bytes *)
  | Command of string
  | Finish of string  (* the final UNREGISTERs *)
  | Quit

let bytes_of = function
  | Setup s | Frame (_, s) | Command s | Finish s -> s
  | Quit -> "QUIT\n"

let setup_bytes =
  String.concat ""
    (Printf.sprintf "AUTH %s\nSUBSCRIBE\n" tenant
    :: List.map (fun (n, q) -> Printf.sprintf "REGISTER %s %s\n" n q) static_queries)

type plan = {
  actions : action list;
  n_frames : int;
  fixed_frames : int;
  reg_frame : int;  (* the late query sees frames [reg_frame, unreg_frame) *)
  unreg_frame : int;
}

let plan ~rows ~fixed_frames =
  let n = Array.length rows in
  let n_frames = (n + frame_rows - 1) / frame_rows in
  let reg_frame = 1 and unreg_frame = fixed_frames - 1 in
  let frame k =
    let lo = k * frame_rows in
    let hi = min n (lo + frame_rows) in
    let b = Buffer.create ((hi - lo) * 32) in
    Buffer.add_string b (Printf.sprintf "BATCH %d\n" (hi - lo));
    for i = lo to hi - 1 do
      Buffer.add_string b rows.(i);
      Buffer.add_char b '\n'
    done;
    Frame (k, Buffer.contents b)
  in
  let frames =
    List.concat
      (List.init n_frames (fun k ->
           (if k = reg_frame then
              [ Command (Printf.sprintf "REGISTER %s %s\n" (fst late_query) (snd late_query)) ]
            else [])
           @ (if k = unreg_frame then [ Command (Printf.sprintf "UNREGISTER %s\n" (fst late_query)) ]
              else [])
           @ [ frame k ]))
  in
  let finish =
    String.concat "" (List.map (fun (n, _) -> Printf.sprintf "UNREGISTER %s\n" n) static_queries)
  in
  {
    actions = (Setup setup_bytes :: frames) @ [ Finish finish; Quit ];
    n_frames;
    fixed_frames;
    reg_frame;
    unreg_frame;
  }

(* Substitution renderings compared as sets of bindings: the binding
   order inside a rendering is not part of the answer. *)
let normalize subst =
  let inner = String.sub subst 1 (String.length subst - 2) in
  String.concat ", " (List.sort String.compare (String.split_on_char ',' inner |> List.map String.trim))

(* --- replies ------------------------------------------------------------ *)

type replies = {
  mutable oks : int;  (* tenant / subscribed / registered *)
  acks : (float * bool) Queue.t;  (* send time of each unacknowledged BATCH, fixed phase? *)
  mutable ack_lat : float list;
  mutable matches : (string * string * float) list;  (* query, normalized subst, arrival *)
  mutable results : (string * string) list;
  mutable unregistered : (string * float) list;
  mutable errors : string list;
  mutable bye : bool;
}

let replies () =
  {
    oks = 0;
    acks = Queue.create ();
    ack_lat = [];
    matches = [];
    results = [];
    unregistered = [];
    errors = [];
    bye = false;
  }

let on_line r t line =
  let pop_ack () =
    match Queue.take_opt r.acks with
    | Some (sent, true) -> r.ack_lat <- (t -. sent) :: r.ack_lat
    | Some (_, false) | None -> ()
  in
  match Protocol.parse_reply line with
  | Ok (Protocol.Ok_done (Some s)) when String.starts_with ~prefix:"batch " s -> pop_ack ()
  | Ok (Protocol.Ok_done (Some s)) when String.starts_with ~prefix:"unregistered " s -> (
      match String.split_on_char ' ' s with
      | _ :: name :: _ -> r.unregistered <- (name, t) :: r.unregistered
      | _ -> r.errors <- line :: r.errors)
  | Ok (Protocol.Ok_done _) -> r.oks <- r.oks + 1
  | Ok (Protocol.Match { query; subst; _ }) -> r.matches <- (query, normalize subst, t) :: r.matches
  | Ok (Protocol.Result { query; subst; _ }) -> r.results <- (query, normalize subst) :: r.results
  | Ok Protocol.Bye -> r.bye <- true
  | Ok (Protocol.Err e) ->
      if String.starts_with ~prefix:"batch" e then pop_ack ();
      r.errors <- line :: r.errors
  | Ok (Protocol.Slow | Protocol.Resume | Protocol.Pong | Protocol.Stats _) -> ()
  | Error _ -> r.errors <- line :: r.errors

(* --- a nonblocking client connection ------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  pending : string Queue.t;
  mutable head_off : int;
  mutable pending_bytes : int;
  partial : Buffer.t;
  rbuf : Bytes.t;
  mutable eof : bool;
}

let enqueue c s =
  Queue.push s c.pending;
  c.pending_bytes <- c.pending_bytes + String.length s

let flush_some c =
  let rec go () =
    match Queue.peek_opt c.pending with
    | None -> ()
    | Some s -> (
        let len = String.length s - c.head_off in
        match Unix.write_substring c.fd s c.head_off len with
        | n ->
            c.pending_bytes <- c.pending_bytes - n;
            if n = len then begin
              ignore (Queue.pop c.pending);
              c.head_off <- 0;
              go ()
            end
            else c.head_off <- c.head_off + n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ())
  in
  go ()

let read_some c r =
  match Unix.read c.fd c.rbuf 0 (Bytes.length c.rbuf) with
  | 0 -> c.eof <- true
  | n ->
      let t = now () in
      Buffer.add_subbytes c.partial c.rbuf 0 n;
      let s = Buffer.contents c.partial in
      let lines = String.split_on_char '\n' s in
      let rec go = function
        | [ last ] ->
            Buffer.clear c.partial;
            Buffer.add_string c.partial last
        | l :: rest ->
            on_line r t l;
            go rest
        | [] -> ()
      in
      go lines
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* Waits up to [timeout] for the socket, then reads and writes what it can. *)
let step c r ~timeout =
  let reads = if c.eof then [] else [ c.fd ] in
  let writes = if Queue.is_empty c.pending then [] else [ c.fd ] in
  match Unix.select reads writes [] (Float.max 0. timeout) with
  | rs, ws, _ ->
      if ws <> [] then flush_some c;
      if rs <> [] then read_some c r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let wait_until c r ~what ~limit cond =
  let deadline = now () +. limit in
  while not (cond ()) do
    if now () > deadline then fail "serve_loopback: timed out waiting for %s" what;
    if c.eof && Queue.is_empty c.pending then fail "serve_loopback: server closed before %s" what;
    step c r ~timeout:0.05
  done

(* --- the server child ------------------------------------------------------ *)

type server = { pid : int; conn : conn; replies : replies; setup_s : float }

let stop_server pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (reap pid)

(* Spawns `ses serve`, waits for its port, connects, authenticates and
   registers the static queries: everything until the engine can take
   its first event. *)
let start_server ctx ~header ~index =
  let port_file = Filename.concat ctx.scratch (Printf.sprintf "port-%d" index) in
  let log =
    Unix.openfile
      (Filename.concat ctx.scratch "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let t0 = now () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        spawn ctx.ses [ "serve"; "--schema"; header; "--port-file"; port_file ] ~stdout:log)
  in
  let deadline = t0 +. 30. in
  let rec port () =
    let p =
      if Sys.file_exists port_file then int_of_string_opt (String.trim (read_file port_file))
      else None
    in
    match p with
    | Some p -> p
    | None ->
        if now () > deadline then fail "serve_loopback: server did not report a port";
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> fail "serve_loopback: server exited during start-up");
        Unix.sleepf 0.0005;
        port ()
  in
  let port = port () in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  let conn =
    {
      fd;
      pending = Queue.create ();
      head_off = 0;
      pending_bytes = 0;
      partial = Buffer.create 4096;
      rbuf = Bytes.create 65536;
      eof = false;
    }
  in
  let replies = replies () in
  enqueue conn setup_bytes;
  flush_some conn;
  let expected = 2 + List.length static_queries in
  wait_until conn replies ~what:"registration" ~limit:30. (fun () ->
      replies.oks >= expected || replies.errors <> []);
  if replies.errors <> [] then
    fail "serve_loopback: set-up refused: %s" (String.concat " / " replies.errors);
  { pid; conn; replies; setup_s = now () -. t0 }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* --- one run over TCP ----------------------------------------------------------- *)

type tcp = {
  t_setups : float list;
  sat_s : float;
  server_cpu_s : float;
  server_rss_mb : float;
  lags : float array;
  got : replies;
  due : float array;  (* per fixed frame *)
}

let last_static () = fst (List.nth static_queries (List.length static_queries - 1))

(* Server starts per run; set-up reads at the fastest. A start takes a
   few milliseconds, so a run can afford many. *)
let server_starts = 30

let tcp_run ctx ~header p =
  let setups = ref [] in
  let rec start i =
    let s = start_server ctx ~header ~index:i in
    setups := s.setup_s :: !setups;
    if i < server_starts - 1 then begin
      close_conn s.conn;
      stop_server s.pid;
      start (i + 1)
    end
    else s
  in
  let s = start 0 in
  Fun.protect
    ~finally:(fun () ->
      close_conn s.conn;
      if List.mem s.pid !children then stop_server s.pid)
    (fun () ->
      let c = s.conn and r = s.replies in
      let t_start = now () +. 0.01 in
      let due = Array.init p.fixed_frames (fun k -> t_start +. (float_of_int k *. interval)) in
      let lags = ref [] in
      let sat_t0 = ref 0. and cpu0 = ref 0. in
      List.iter
        (fun a ->
          match a with
          | Setup _ -> ()
          | Command b -> enqueue c b
          | Frame (k, b) when k < p.fixed_frames ->
              let d = due.(k) in
              while now () < d do
                step c r ~timeout:(d -. now ())
              done;
              let t = now () in
              lags := (t -. d) :: !lags;
              enqueue c b;
              Queue.push (t, true) r.acks;
              flush_some c
          | Frame (_, b) ->
              if !sat_t0 = 0. then begin
                sat_t0 := now ();
                cpu0 := cpu_s s.pid
              end;
              while c.pending_bytes > 65536 do
                step c r ~timeout:0.05
              done;
              enqueue c b;
              Queue.push (now (), false) r.acks;
              flush_some c
          | Finish b ->
              enqueue c b;
              wait_until c r ~what:"the final results" ~limit:150. (fun () ->
                  List.mem_assoc (last_static ()) r.unregistered
                  || List.exists (String.starts_with ~prefix:"ERR unregister") r.errors);
              if not (List.mem_assoc (last_static ()) r.unregistered) then
                fail "serve_loopback: final UNREGISTER refused: %s" (String.concat " / " r.errors)
          | Quit -> ())
        p.actions;
      let t_final = List.assoc (last_static ()) r.unregistered in
      let cpu1 = cpu_s s.pid in
      let rss = peak_rss_mb (string_of_int s.pid) in
      enqueue c (bytes_of Quit);
      wait_until c r ~what:"BYE" ~limit:30. (fun () -> r.bye || c.eof);
      {
        t_setups = !setups;
        sat_s = t_final -. !sat_t0;
        server_cpu_s = cpu1 -. !cpu0;
        server_rss_mb = rss;
        lags = Array.of_list !lags;
        got = r;
        due;
      })

(* --- the offline oracle ------------------------------------------------------ *)

let render pattern s = normalize (Format.asprintf "%a" (Substitution.pp pattern) s)

let parse text = ok "query" (Ses_lang.Lang.parse_pattern Ses_gen.Chemo.schema text)

type expected = {
  results : string list;  (* finalized: what the RESULT lines must be *)
  raw : string list;  (* every raw emission, sorted *)
  required : string list;
      (* raw emissions the stream must carry: triggered in the
         fixed-rate phase, at least two frames before the query's
         UNREGISTER — later ones may wait for a batch that never comes
         and be flushed into the RESULT lines instead *)
  peak : int;
}

(* The query run alone by the Plain engine over events [lo, hi). *)
let offline events ts ~fixed_rows (text, lo, hi) =
  let pattern = parse text in
  let tau = Ses_pattern.Pattern.tau pattern in
  let o =
    Executor.run `Plain (Automaton.of_pattern pattern) (Array.to_seq (Array.sub events lo (hi - lo)))
  in
  let fed = Array.sub ts lo (hi - lo) in
  let required =
    List.filter
      (fun s ->
        match Option.bind (Substitution.min_ts s) (fun from -> Trigger.first_after fed ~from ~tau) with
        | Some i -> lo + i < fixed_rows && lo + i < hi - (2 * frame_rows)
        | None -> false)
      o.raw
  in
  let sorted l = List.sort String.compare (List.map (render pattern) l) in
  {
    results = sorted o.matches;
    raw = sorted o.raw;
    required = sorted required;
    peak = o.metrics.max_simultaneous_instances;
  }

(* [diff a b]: the elements of sorted [a] not matched in sorted [b], as
   multisets. *)
let diff a b =
  let rec go a b acc =
    match (a, b) with
    | [], _ -> acc
    | rest, [] -> acc + List.length rest
    | x :: a', y :: b' ->
        let c = String.compare x y in
        if c = 0 then go a' b' acc else if c < 0 then go a' b (acc + 1) else go a b' acc
  in
  go a b 0

let of_query name l =
  List.sort String.compare (List.filter_map (fun (q, s) -> if q = name then Some s else None) l)

(* Per query: RESULT lines equal the offline finalize; every MATCH line
   is an offline raw emission (none invented or repeated); every
   required raw emission arrived as a MATCH. Each expected line is one
   operation, each wrong, extra or missing line one failure. Raw
   emissions the server flushed into the RESULT lines without
   streaming are reported, not failed. *)
let check_lines t ~what expected ~matches ~results =
  List.iter
    (fun (name, e) ->
      let got_m = of_query name matches and got_r = of_query name results in
      let bad_r = diff e.results got_r + diff got_r e.results in
      let extra = diff got_m e.raw and missing = diff e.required got_m in
      t.attempted <- t.attempted + List.length e.results + List.length got_m + List.length e.required;
      t.failed <- t.failed + bad_r + extra + missing;
      if bad_r + extra + missing > 0 then
        flag t
          (Printf.sprintf "%s: query %s: %d RESULT lines differ, %d MATCH lines extra, %d missing"
             what name bad_r extra missing);
      let unstreamed = List.length e.raw - (List.length got_m - extra) in
      if unstreamed > 0 then
        flag t
          (Printf.sprintf "%s: query %s: %d of %d raw emissions not streamed as MATCH" what name
             unstreamed (List.length e.raw)))
    expected

(* --- the in-process replay through Runtime ------------------------------------ *)

type replayed = {
  r_matches : (string * string) list;
  r_results : (string * string) list;
  ticks : int;
  slow : int;
  queue_depth_max : int;
}

(* How the server receives the client byte stream: fixed-rate frames
   one by one, as they arrive; the saturation stream in reads of the TCP
   layer's 64 KiB buffer. *)
let replay_chunks p =
  let read_size = 65536 in
  let sat = Buffer.create (1 lsl 20) and out = ref [] in
  let flush_sat () =
    let s = Buffer.contents sat in
    Buffer.clear sat;
    let n = String.length s in
    let rec go off =
      if off < n then begin
        out := String.sub s off (min read_size (n - off)) :: !out;
        go (off + read_size)
      end
    in
    go 0
  in
  List.iter
    (function
      | Frame (k, b) when k >= p.fixed_frames -> Buffer.add_string sat b
      | a ->
          flush_sat ();
          out := bytes_of a :: !out)
    p.actions;
  flush_sat ();
  List.rev !out

(* The same client byte stream pushed through Runtime.input / tick /
   take_output in one process: the TCP loop without sockets. Reads stop
   while Block backpressure holds, as the TCP layer's would. *)
let replay (wr : wrap) p =
  let tl = Telemetry.create () in
  let rt =
    Runtime.create { (Runtime.default_config ~schema:Ses_gen.Chemo.schema) with telemetry = Some tl }
  in
  let id = Runtime.add_conn rt in
  let ticks = ref 0 and slow = ref 0 and matches = ref [] and results = ref [] in
  let drain () =
    let out = wr.w "runtime.take_output" (fun () -> Runtime.take_output rt id) in
    List.iter
      (fun line ->
        match Protocol.parse_reply line with
        | Ok (Protocol.Match { query; subst; _ }) -> matches := (query, normalize subst) :: !matches
        | Ok (Protocol.Result { query; subst; _ }) -> results := (query, normalize subst) :: !results
        | Ok Protocol.Slow -> incr slow
        | _ -> ())
      (String.split_on_char '\n' out)
  in
  let tick () =
    incr ticks;
    wr.w "runtime.tick" (fun () -> Runtime.tick rt)
  in
  List.iter
    (fun chunk ->
      while not (Runtime.want_read rt id) do
        tick ();
        drain ()
      done;
      wr.w "runtime.input" (fun () -> Runtime.input rt id chunk);
      tick ();
      drain ())
    (replay_chunks p);
  let depth =
    match List.assoc_opt "server.queue_depth" (Telemetry.snapshot tl).histograms with
    | Some h -> h.hist_max
    | None -> 0
  in
  { r_matches = !matches; r_results = !results; ticks = !ticks; slow = !slow; queue_depth_max = depth }

(* The p99 of a phase is the tail a single stalled frame can move: one
   frame carries dozens of matches, and the host stalls these processes
   now and then, in phases of seconds. It is read in each fifth of the
   fixed-rate phase (by trigger position) and reported on the fast
   side, at the second-lowest fifth, so stalls in up to three fifths do
   not move the result. What the server itself does — queueing, the
   select stall, batch-deferred expiry — happens in every fifth. Each
   fifth must support its p99 on its own. *)
let tail_parts = 5

let set_tail t m lat =
  let hi = Array.fold_left (fun acc (i, _) -> max acc (i + 1)) 1 lat in
  let part k =
    Array.of_list
      (List.filter_map
         (fun (i, l) -> if i * tail_parts / hi = k then Some l else None)
         (Array.to_list lat))
  in
  let parts = List.init tail_parts (fun k -> Percentile.of_samples (part k) 0.99) in
  List.iter
    (fun (r : Percentile.t) ->
      if not r.supported then
        flag t
          (Printf.sprintf "match_latency_p99_ms: a fifth has %d samples, fewer than the %d a p99 needs"
             r.samples (Percentile.min_samples 0.99)))
    parts;
  let values = Array.of_list (List.map (fun (r : Percentile.t) -> r.value) parts) in
  Array.sort Float.compare values;
  set m ~samples:(Array.length lat) "match_latency_p99_ms" (values.(1) *. 1e3)

(* --- the workload ---------------------------------------------------------------- *)

let run ctx =
  let t = tally () and m = metrics () in
  let path = generate ctx "chemo" (patients_per_second * ctx.seconds) in
  let lines = String.split_on_char '\n' (String.trim (read_file path)) in
  let header = List.hd lines in
  let rows = Array.of_list (List.tl lines) in
  let rel = ok "csv" (Ses_store.Csv.load path) in
  let events = Relation.events rel in
  let ts = timestamps events in
  let fixed_frames = int_of_float (rate *. float_of_int ctx.seconds /. 2. /. float_of_int frame_rows) in
  let p = plan ~rows ~fixed_frames in
  if p.n_frames <= fixed_frames then fail "serve_loopback: stream too short for the fixed phase";
  let n = Array.length events in
  let fixed_rows = fixed_frames * frame_rows in
  let expected =
    List.map (fun (name, text) -> (name, offline events ts ~fixed_rows (text, 0, n))) static_queries
    @ [
        ( fst late_query,
          offline events ts ~fixed_rows
            (snd late_query, p.reg_frame * frame_rows, p.unreg_frame * frame_rows) );
      ]
  in
  let check_run what ~matches ~results = check_lines t ~what expected ~matches ~results in
  let tau_of =
    let taus =
      List.map
        (fun (name, text) ->
          (name, Ses_pattern.Pattern.tau (parse text)))
        (late_query :: static_queries)
    in
    fun q -> List.assoc q taus
  in
  let run = tcp_run ctx ~header p in
  let r = run.got in
  check_run "tcp" ~matches:(List.map (fun (q, s, _) -> (q, s)) r.matches) ~results:r.results;
  t.attempted <- t.attempted + p.n_frames + 2 + (2 * (List.length static_queries + 1));
  t.failed <- t.failed + List.length r.errors;
  List.iter (fun e -> flag t ("server replied " ^ e)) r.errors;
  (* Latency of matches whose trigger event fell in the fixed phase,
     with the trigger's position. *)
  let lat =
    Array.of_list
      (List.filter_map
         (fun (q, s, arrival) ->
           let from =
             List.fold_left (fun acc i -> min acc ts.(i)) max_int (Trigger.event_ids s)
           in
           match Trigger.first_after ts ~from ~tau:(tau_of q) with
           | Some i when i < fixed_rows -> Some (i, arrival -. run.due.(i / frame_rows))
           | _ -> None)
         r.matches)
  in
  let lag_p99 = (Percentile.of_samples run.lags 0.99).value in
  check t
    (Printf.sprintf "generator kept its schedule (lag p99 %.1f ms within the %.0f ms frame interval)"
       (lag_p99 *. 1e3) (interval *. 1e3))
    (lag_p99 <= interval);
  let sat_events = n - fixed_rows in
  if not ctx.trace then begin
    set m ~samples:(List.length run.t_setups) "setup_s" (fast_duration run.t_setups);
    set m "events_per_s" (float_of_int sat_events /. run.sat_s);
    set m "peak_rss_mb" run.server_rss_mb;
    set_pct t m "match_latency_p50_ms" ~scale:1e3 (Array.map snd lat) 0.5;
    set_tail t m lat
  end
  else begin
    set m "server.cpu_s" run.server_cpu_s;
    set m "server.busy_ratio" (run.server_cpu_s /. run.sat_s);
    let acks = Array.of_list r.ack_lat in
    set_pct t m "tcp.batch_ack_p50_ms" ~scale:1e3 acks 0.5;
    set_pct t m "tcp.batch_ack_p99_ms" ~scale:1e3 acks 0.99;
    set m ~samples:(Array.length run.lags) "loadgen.lag_p99_ms" (lag_p99 *. 1e3);
    let _, untraced_s = time (fun () -> replay untraced p) in
    let rec_ = Spans.create ~run_id:ctx.run_id () in
    let wr = traced rec_ in
    let rp, traced_s = time (fun () -> wr.w root_span (fun () -> replay wr p)) in
    let spans = Spans.spans rec_ in
    write_spans ctx spans;
    set_layers m spans ~traced_s ~untraced_s;
    check_run "replay" ~matches:rp.r_matches ~results:rp.r_results;
    set m "runtime.ticks" (float_of_int rp.ticks);
    set m "runtime.slow_signals" (float_of_int rp.slow);
    set m "runtime.queue_depth_max" (float_of_int rp.queue_depth_max);
    set m "finalize.matches"
      (float_of_int (List.fold_left (fun acc (_, e) -> acc + List.length e.results) 0 expected));
    set_bounds_sum t m
      (List.map
         (fun (name, e) ->
           (parse (List.assoc name (late_query :: static_queries)), rel, e.peak))
         expected)
  end;
  (t, m)
