(* bwclusterd: the transport shell around the deterministic daemon core.

   Everything impure lives here — Unix domain sockets, the wall clock,
   signals — mapped onto the pure Bwc_daemon.Reactor interface: wall
   time is quantized into ticks, socket lines are fed through
   Reactor.handle_line, and each tick's outputs are written back to the
   connections that asked.  The reactor itself (admission, deadlines,
   backpressure, degradation, watchdog) never sees a file descriptor,
   which is what makes the scripted tests and E17 byte-replayable.

   Exit codes follow bwcluster's convention: 0 success, 1 I/O failure
   (socket bind, snapshot write), 124 bad command line. *)

open Cmdliner
module Rng = Bwc_stats.Rng
module Tbl = Bwc_stats.Tbl
module Registry = Bwc_obs.Registry
module Dynamic = Bwc_core.Dynamic
module Codec = Bwc_persist.Codec
module Snapshot = Bwc_persist.Snapshot
module Reactor = Bwc_daemon.Reactor
module Wire = Bwc_daemon.Wire
module Lifecycle = Bwc_daemon.Lifecycle

let exit_io = 1

let logf fmt = Printf.eprintf ("bwclusterd: " ^^ fmt ^^ "\n%!")

(* ----- dataset (same names as bwcluster) ----- *)

let load_dataset ~seed name =
  match Bwc_dataset.Planetlab.load ~seed name with
  | Ok ds -> ds
  | Error e ->
      logf "cannot read dataset %s: %s" name (Bwc_dataset.Dataset.load_error_to_string e);
      exit exit_io

(* ----- serve ----- *)

type conn = { fd : Unix.file_descr; buf : Buffer.t }

let send_response fd response =
  let line = Wire.render response ^ "\n" in
  let len = String.length line in
  let rec go off =
    if off < len then
      let n = Unix.write_substring fd line off (len - off) in
      go (off + n)
  in
  go 0

let serve socket_path dataset seed snapshot_path keep tick_ms snapshot_every
    hosts =
  let ds = load_dataset ~seed dataset in
  let ds =
    match hosts with
    | Some h when h < Bwc_dataset.Dataset.size ds ->
        Bwc_dataset.Dataset.random_subset ds ~rng:(Rng.create seed) h
    | _ -> ds
  in
  let metrics = Registry.create () in
  let cold () =
    logf "cold start: building %s (n=%d) from scratch"
      ds.Bwc_dataset.Dataset.name
      (Bwc_dataset.Dataset.size ds);
    Dynamic.create ~seed ds
  in
  (* every rejected generation is logged before a cold build starts, so
     an operator sees why the daemon is building from scratch *)
  let loaded = Snapshot.load_any ~metrics ~keep snapshot_path in
  List.iter
    (fun (g, e) ->
      logf "snapshot generation %d rejected: %s" g (Codec.error_to_string e))
    (snd loaded);
  let boot = Lifecycle.warm_or_cold ~metrics ~cold loaded in
  (match boot.Lifecycle.generation with
  | Some g ->
      logf "warm restart from snapshot generation %d (%d members, ready now)"
        g
        (Dynamic.member_count boot.Lifecycle.system)
  | None -> logf "serving cold (%d members)" (Dynamic.member_count boot.Lifecycle.system));
  let config =
    { Reactor.default_config with Reactor.snapshot_every; seed }
  in
  let reactor = Reactor.create ~metrics config boot.Lifecycle.system in
  (* the listener *)
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     if Sys.file_exists socket_path then Sys.remove socket_path;
     Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
     Unix.listen listen_fd 16
   with
  | Unix.Unix_error (err, _, _) ->
      logf "cannot bind %s: %s" socket_path (Unix.error_message err);
      exit exit_io
  | Sys_error msg ->
      logf "cannot bind %s: %s" socket_path msg;
      exit exit_io);
  logf "listening on %s (tick %dms, snapshot %s, keep %d)" socket_path tick_ms
    snapshot_path keep;
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 16 in
  let next_conn = ref 0 in
  let want_drain = ref false in
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> want_drain := true)))
    [ Sys.sigterm; Sys.sigint ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t0 = Unix.gettimeofday () in
  let tick_len = float_of_int tick_ms /. 1000. in
  let tick_of_wall () =
    int_of_float ((Unix.gettimeofday () -. t0) /. tick_len)
  in
  let last_tick = ref (-1) in
  let close_conn id c =
    Hashtbl.remove conns id;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let deliver (o : Reactor.output) =
    match Hashtbl.find_opt conns o.Reactor.conn with
    | None -> () (* connection went away; the response is dropped at the door *)
    | Some c -> (
        try send_response c.fd o.Reactor.response
        with Unix.Unix_error _ -> close_conn o.Reactor.conn c)
  in
  let maybe_snapshot () =
    if Reactor.take_snapshot_request reactor then
      match
        Lifecycle.snapshot ~metrics ~keep ~path:snapshot_path
          (Reactor.system reactor)
      with
      | Ok bytes -> logf "snapshot written (%d bytes)" bytes
      | Error e -> logf "snapshot failed: %s" (Codec.error_to_string e)
  in
  let advance_clock () =
    let now = tick_of_wall () in
    (* never skip tick numbers: queued deadlines are measured in ticks *)
    while !last_tick < now do
      incr last_tick;
      List.iter deliver (Reactor.tick reactor ~now:!last_tick);
      maybe_snapshot ()
    done
  in
  let handle_input id c =
    let bytes = Bytes.create 4096 in
    let n = try Unix.read c.fd bytes 0 4096 with Unix.Unix_error _ -> 0 in
    if n = 0 then close_conn id c
    else begin
      Buffer.add_subbytes c.buf bytes 0 n;
      let data = Buffer.contents c.buf in
      let parts = String.split_on_char '\n' data in
      let rec feed = function
        | [] -> ()
        | [ rest ] ->
            Buffer.clear c.buf;
            Buffer.add_string c.buf rest
        | line :: tl ->
            let line = String.trim line in
            if line <> "" then
              List.iter deliver
                (Reactor.handle_line reactor ~now:(max 0 !last_tick) ~conn:id
                   line);
            feed tl
      in
      feed parts
    end
  in
  let rec loop () =
    advance_clock ();
    if !want_drain then begin
      want_drain := false;
      logf "drain requested: refusing new work, finishing the queue";
      Reactor.drain reactor ~now:(max 0 !last_tick)
    end;
    if Reactor.mode reactor = Reactor.Draining && Reactor.drained reactor then begin
      (match
         Lifecycle.snapshot ~metrics ~keep ~path:snapshot_path
           (Reactor.system reactor)
       with
      | Ok bytes -> logf "final snapshot written (%d bytes)" bytes
      | Error e ->
          logf "final snapshot failed: %s" (Codec.error_to_string e);
          exit exit_io);
      Tbl.iter_sorted
        (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        conns;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (try Sys.remove socket_path with Sys_error _ -> ());
      logf "drained and stopped"
    end
    else begin
      let fds =
        listen_fd :: Tbl.fold_sorted (fun _ c acc -> c.fd :: acc) conns []
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      let next_boundary = (float_of_int (!last_tick + 1) *. tick_len) -. elapsed in
      let timeout = Float.max 0.001 (Float.min next_boundary tick_len) in
      let readable, _, _ =
        try Unix.select fds [] [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun fd ->
          if fd = listen_fd then begin
            match Unix.accept listen_fd with
            | cfd, _ ->
                incr next_conn;
                Hashtbl.replace conns !next_conn
                  { fd = cfd; buf = Buffer.create 256 }
            | exception Unix.Unix_error _ -> ()
          end
          else
            (* accept-order traversal: lines that raced into the same
               tick are fed to the reactor oldest connection first *)
            Tbl.iter_sorted
              (fun id c -> if c.fd = fd then handle_input id c)
              (Hashtbl.copy conns))
        readable;
      loop ()
    end
  in
  loop ()

(* ----- client ----- *)

let client socket_path timeout lines =
  let lines =
    match lines with
    | [] ->
        let rec slurp acc =
          match In_channel.input_line In_channel.stdin with
          | Some l -> slurp (l :: acc)
          | None -> List.rev acc
        in
        slurp []
    | ls -> ls
  in
  let lines = List.filter (fun l -> String.trim l <> "") lines in
  if lines = [] then begin
    logf "nothing to send";
    exit Cmd.Exit.cli_error
  end;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket_path)
   with Unix.Unix_error (err, _, _) ->
     logf "cannot connect to %s: %s" socket_path (Unix.error_message err);
     exit exit_io);
  List.iter
    (fun l ->
      let msg = l ^ "\n" in
      ignore (Unix.write_substring fd msg 0 (String.length msg)))
    lines;
  (* the protocol is strictly one response line per request line *)
  let expect = List.length lines in
  let deadline = Unix.gettimeofday () +. timeout in
  let buf = Buffer.create 1024 in
  let received = ref 0 in
  let bytes = Bytes.create 4096 in
  let rec pump () =
    if !received < expect then begin
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0. then begin
        logf "timed out after %d/%d responses" !received expect;
        exit exit_io
      end;
      match Unix.select [ fd ] [] [] remaining with
      | [], _, _ ->
          logf "timed out after %d/%d responses" !received expect;
          exit exit_io
      | _ -> (
          let n = try Unix.read fd bytes 0 4096 with Unix.Unix_error _ -> 0 in
          if n = 0 then begin
            logf "server closed the connection after %d/%d responses"
              !received expect;
            exit exit_io
          end
          else begin
            Buffer.add_subbytes buf bytes 0 n;
            let data = Buffer.contents buf in
            let parts = String.split_on_char '\n' data in
            let rec consume = function
              | [] -> ()
              | [ rest ] ->
                  Buffer.clear buf;
                  Buffer.add_string buf rest
              | line :: tl ->
                  print_endline line;
                  incr received;
                  consume tl
            in
            consume parts;
            pump ()
          end)
    end
  in
  pump ();
  Unix.close fd

(* ----- cmdliner ----- *)

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/bwclusterd.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix domain socket path.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let serve_cmd =
  let doc =
    "Serve the line protocol on a Unix domain socket.  Boots warm from the \
     newest verifiable snapshot generation (cold otherwise), quantizes wall \
     time into reactor ticks, sheds overload with typed refusals, serves \
     index answers with an explicit staleness bound while the aggregation \
     reconverges, and drains then snapshots on SIGTERM/SIGINT or a \
     SHUTDOWN request."
  in
  let dataset =
    Arg.(
      value
      & opt string "hp-small"
      & info [ "dataset" ] ~docv:"NAME"
          ~doc:"Dataset for a cold start: hp, umd, hp-small, umd-small, or a \
                CSV path.")
  in
  let snapshot =
    Arg.(
      value
      & opt string "/tmp/bwclusterd.bwcsnap"
      & info [ "snapshot" ] ~docv:"PATH"
          ~doc:"Snapshot image path (rotated generations live beside it).")
  in
  let keep =
    Arg.(
      value & opt int 3
      & info [ "keep" ] ~docv:"K" ~doc:"Rotated snapshot generations to keep.")
  in
  let tick_ms =
    Arg.(
      value & opt int 20
      & info [ "tick-ms" ] ~docv:"MS" ~doc:"Milliseconds per reactor tick.")
  in
  let snapshot_every =
    Arg.(
      value
      & opt (some int) (Some 500)
      & info [ "snapshot-every" ] ~docv:"TICKS"
          ~doc:"Periodic snapshot cadence in ticks (omit for none).")
  in
  let hosts =
    Arg.(
      value
      & opt (some int) (Some 48)
      & info [ "hosts" ] ~docv:"N"
          ~doc:"Subset the dataset to N hosts before serving.")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const serve $ socket_arg $ dataset $ seed_arg $ snapshot $ keep
      $ tick_ms $ snapshot_every $ hosts)

let client_cmd =
  let doc =
    "Send request lines to a running daemon and print one response line per \
     request (reads stdin when no lines are given).  Exits 1 on timeout or \
     a dropped connection."
  in
  let timeout =
    Arg.(
      value & opt float 5.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"How long to wait for all responses.")
  in
  let lines =
    Arg.(value & pos_all string [] & info [] ~docv:"LINE" ~doc:"Request lines.")
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(const client $ socket_arg $ timeout $ lines)

let main_cmd =
  let doc =
    "Deterministic bandwidth-cluster daemon: admission control, deadlines, \
     backpressure, graceful degradation under overload."
  in
  Cmd.group (Cmd.info "bwclusterd" ~version:"1.0.0" ~doc) [ serve_cmd; client_cmd ]

let () = exit (Cmd.eval main_cmd)
