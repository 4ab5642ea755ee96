(* The deterministic in-memory transport: a scripted feed of (tick,
   conn, line) entries driven through a reactor, with a drain at the
   end so every admitted request resolves to exactly one response.
   The transcript rendering is the byte-comparable artifact the
   daemon-replay property and E17's same-seed rerun check diff. *)

type entry = { at : int; conn : int; line : string }

let line ~at ~conn line = { at; conn; line }

type event = { tick : int; conn : int; response : Wire.response }

(* extra ticks a drain may take before [run] gives up *)
let drain_grace = 1000

let run reactor entries =
  let entries =
    (* stable sort: same-tick entries keep script order *)
    List.stable_sort (fun a b -> compare a.at b.at) entries
  in
  let horizon = List.fold_left (fun acc e -> max acc e.at) 0 entries in
  let events = ref [] in
  let push now outs =
    List.iter
      (fun (o : Reactor.output) ->
        events := { tick = now; conn = o.Reactor.conn; response = o.Reactor.response } :: !events)
      outs
  in
  let rest = ref entries in
  for now = 0 to horizon do
    let today, later = List.partition (fun e -> e.at = now) !rest in
    rest := later;
    List.iter
      (fun (e : entry) ->
        push now (Reactor.handle_line reactor ~now ~conn:e.conn e.line))
      today;
    push now (Reactor.tick reactor ~now)
  done;
  (* drain: keep ticking until every admitted request has answered (or
     the grace bound trips — a bug, surfaced by the unresolved count) *)
  Reactor.drain reactor ~now:horizon;
  let now = ref horizon in
  while (not (Reactor.drained reactor)) && !now - horizon < drain_grace do
    incr now;
    push !now (Reactor.tick reactor ~now:!now)
  done;
  List.rev !events

let transcript events =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%d %d %s\n" e.tick e.conn (Wire.render e.response)))
    events;
  Buffer.contents buf
