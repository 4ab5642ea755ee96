(* The bwclusterd line protocol.

   One request per line, one response line per request — the 1:1
   discipline is what lets a client know when it has heard everything
   it is owed (PING/HEALTH/STATS/SNAPSHOT/SHUTDOWN answer immediately;
   admitted work answers when the reactor reaches it; refused work
   answers SHED immediately).  Fields are space-separated tokens,
   options are [key=value].  Parsing and rendering are pure string
   functions: the same module serves the deterministic in-memory
   transport and the Unix-socket transport in bin/bwclusterd.ml. *)

type request =
  | Ping
  | Query of { id : string; k : int; b : float; deadline : int option }
  | Join of { id : string; host : int }
  | Leave of { id : string; host : int }
  | Measure of { id : string; src : int; dst : int; mbps : float }
  | Health
  | Stats
  | Snapshot_req
  | Shutdown

type served = Live | Index

let served_name = function Live -> "live" | Index -> "index"

type response =
  | Pong
  | Answer of {
      id : string;
      cluster : int list option;
      hops : int;
      served : served;
      degraded : bool;
      staleness : int;
      bounds : (int * int) option;
    }
  | Acked of { id : string; cls : string; applied : bool }
  | Shed of { id : string; cls : string; reason : string }
  | Timeout of { id : string; waited : int; deadline : int }
  | Rejected of { id : string; reason : string; attempts : int }
  | Health_report of {
      mode : string;
      members : int;
      staleness : int;
      depth_churn : int;
      depth_query : int;
      depth_meas : int;
    }
  | Stats_json of string
  | Snapshotting
  | Draining
  | Parse_error of { reason : string }

(* ----- parsing -----

   The reader walks the line with one index and copies only the id and
   the values it converts.  Words are the line's space-separated runs,
   each trimmed of [String.trim]'s whitespace; a word that trims to
   nothing is skipped.  [word_start] finds a word's first byte and
   [word_stop] the end of its trimmed bytes.  Only whitespace lies
   between that end and the next word, so the next [word_start] may
   begin there. *)

let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let word_start line i =
  let len = String.length line in
  let i = ref i in
  while !i < len && is_blank line.[!i] do
    incr i
  done;
  !i

(* [start] is a word's first byte, which is not blank *)
let word_stop line start =
  let len = String.length line in
  let j = ref start in
  while !j < len && line.[!j] <> ' ' do
    incr j
  done;
  while is_blank line.[!j - 1] do
    decr j
  done;
  !j

(* whether the word [start, stop) begins with [s] *)
let begins line start stop s =
  let n = String.length s in
  let i = ref 0 in
  if n <= stop - start then
    while !i < n && line.[start + !i] = s.[!i] do
      incr i
    done;
  !i = n

let is_word line start stop s = stop - start = String.length s && begins line start stop s

let has_eq line start stop =
  let i = ref start in
  while !i < stop && line.[!i] <> '=' do
    incr i
  done;
  !i < stop

(* The value of the first word from [i] on whose key, the bytes before
   its first ['='], is [key]; [key_eq] is [key ^ "="].  Without such a
   word it is [""], which reads as no number, as an empty value does. *)
let rec value line key_eq i =
  let start = word_start line i in
  if start = String.length line then ""
  else begin
    let stop = word_stop line start in
    if begins line start stop key_eq then
      String.sub line (start + String.length key_eq) (stop - start - String.length key_eq)
    else value line key_eq stop
  end

(* [""] is no number without a conversion, which would raise and catch
   a [Failure] inside: a QUERY without a deadline reads one *)
let int_field line key_eq i =
  match value line key_eq i with "" -> None | v -> int_of_string_opt v

let float_field line key_eq i =
  match value line key_eq i with "" -> None | v -> float_of_string_opt v

let malformed line start stop =
  Error (Printf.sprintf "unknown or malformed request %S" (String.sub line start (stop - start)))

(* a verb that takes no id stands alone on its line *)
let alone line v0 v1 request =
  if word_start line v1 = String.length line then Ok request else malformed line v0 v1

(* A verb that names a request, then its id, a word without ['='], then
   [key=value] words in any order: the first word of a key counts, and
   other words are ignored. *)
let with_id line v0 v1 =
  let i0 = word_start line v1 in
  if i0 = String.length line then malformed line v0 v1
  else begin
    let i1 = word_stop line i0 in
    if has_eq line i0 i1 then malformed line v0 v1
    else begin
      let id = String.sub line i0 (i1 - i0) in
      if is_word line v0 v1 "QUERY" then begin
        match (int_field line "k=" i1, float_field line "b=" i1) with
        | Some k, Some b -> Ok (Query { id; k; b; deadline = int_field line "deadline=" i1 })
        | _ -> Error "QUERY needs k=<int> b=<float> [deadline=<ticks>]"
      end
      else if is_word line v0 v1 "JOIN" then begin
        match int_field line "host=" i1 with
        | Some host -> Ok (Join { id; host })
        | None -> Error "JOIN needs host=<int>"
      end
      else if is_word line v0 v1 "LEAVE" then begin
        match int_field line "host=" i1 with
        | Some host -> Ok (Leave { id; host })
        | None -> Error "LEAVE needs host=<int>"
      end
      else if is_word line v0 v1 "MEAS" then begin
        match (int_field line "src=" i1, int_field line "dst=" i1, float_field line "bw=" i1) with
        | Some src, Some dst, Some mbps -> Ok (Measure { id; src; dst; mbps })
        | _ -> Error "MEAS needs src=<int> dst=<int> bw=<float>"
      end
      else malformed line v0 v1
    end
  end

let parse line =
  let v0 = word_start line 0 in
  if v0 = String.length line then Error "empty line"
  else begin
    let v1 = word_stop line v0 in
    if is_word line v0 v1 "PING" then alone line v0 v1 Ping
    else if is_word line v0 v1 "HEALTH" then alone line v0 v1 Health
    else if is_word line v0 v1 "STATS" then alone line v0 v1 Stats
    else if is_word line v0 v1 "SNAPSHOT" then alone line v0 v1 Snapshot_req
    else if is_word line v0 v1 "SHUTDOWN" then alone line v0 v1 Shutdown
    else with_id line v0 v1
  end

(* ----- rendering -----

   Every line is written into one buffer: strings are appended and ints
   written as their decimal digits. *)

(* [string_of_int v]'s bytes, the digits taken off the non-positive
   [-|v|], which every int has, so [min_int] needs no case *)
let add_int b v =
  let q = if v < 0 then v else -v in
  if v < 0 then Buffer.add_char b '-';
  let p = ref 1 in
  while q / !p <= -10 do
    p := !p * 10
  done;
  while !p > 0 do
    Buffer.add_char b (Char.chr (48 - (q / !p mod 10)));
    p := !p / 10
  done

let add_bit b x = Buffer.add_char b (if x then '1' else '0')

let rec add_rest b = function
  | [] -> ()
  | h :: rest ->
      Buffer.add_char b ',';
      add_int b h;
      add_rest b rest

let add_hosts b = function
  | None -> Buffer.add_string b "none"
  | Some [] -> ()
  | Some (h :: rest) ->
      add_int b h;
      add_rest b rest

let render r =
  let b = Buffer.create 128 in
  (match r with
  | Pong -> Buffer.add_string b "PONG"
  | Answer { id; cluster; hops; served; degraded; staleness; bounds } -> (
      Buffer.add_string b "OK ";
      Buffer.add_string b id;
      Buffer.add_string b " cluster=";
      add_hosts b cluster;
      Buffer.add_string b " hops=";
      add_int b hops;
      Buffer.add_string b " served=";
      Buffer.add_string b (served_name served);
      Buffer.add_string b " degraded=";
      add_bit b degraded;
      Buffer.add_string b " staleness=";
      add_int b staleness;
      match bounds with
      | None -> ()
      | Some (lo, hi) ->
          Buffer.add_string b " lo=";
          add_int b lo;
          Buffer.add_string b " hi=";
          add_int b hi)
  | Acked { id; cls; applied } ->
      Buffer.add_string b "ACK ";
      Buffer.add_string b id;
      Buffer.add_string b " class=";
      Buffer.add_string b cls;
      Buffer.add_string b " applied=";
      add_bit b applied
  | Shed { id; cls; reason } ->
      Buffer.add_string b "SHED ";
      Buffer.add_string b id;
      Buffer.add_string b " class=";
      Buffer.add_string b cls;
      Buffer.add_string b " reason=";
      Buffer.add_string b reason
  | Timeout { id; waited; deadline } ->
      Buffer.add_string b "TIMEOUT ";
      Buffer.add_string b id;
      Buffer.add_string b " waited=";
      add_int b waited;
      Buffer.add_string b " deadline=";
      add_int b deadline
  | Rejected { id; reason; attempts } ->
      Buffer.add_string b "REJECTED ";
      Buffer.add_string b id;
      Buffer.add_string b " reason=";
      Buffer.add_string b reason;
      Buffer.add_string b " attempts=";
      add_int b attempts
  | Health_report { mode; members; staleness; depth_churn; depth_query; depth_meas } ->
      Buffer.add_string b "HEALTH mode=";
      Buffer.add_string b mode;
      Buffer.add_string b " members=";
      add_int b members;
      Buffer.add_string b " staleness=";
      add_int b staleness;
      Buffer.add_string b " q_churn=";
      add_int b depth_churn;
      Buffer.add_string b " q_query=";
      add_int b depth_query;
      Buffer.add_string b " q_meas=";
      add_int b depth_meas
  | Stats_json json ->
      Buffer.add_string b "STATS ";
      Buffer.add_string b json
  | Snapshotting -> Buffer.add_string b "SNAPSHOTTING"
  | Draining -> Buffer.add_string b "DRAINING"
  | Parse_error { reason } ->
      Buffer.add_string b "ERR ";
      Buffer.add_string b reason);
  Buffer.contents b
