(** The [bwclusterd] line protocol: one request per line, one response
    line per request.

    Requests:
    {v
    PING
    QUERY <id> k=<int> b=<float> [deadline=<ticks>]
    JOIN <id> host=<int>
    LEAVE <id> host=<int>
    MEAS <id> src=<int> dst=<int> bw=<float>
    HEALTH
    STATS
    SNAPSHOT
    SHUTDOWN
    v}

    Responses (one of):
    {v
    PONG
    OK <id> cluster=<h1,h2,...|none> hops=<n> served=<live|index> degraded=<0|1> staleness=<ticks>
    ACK <id> class=<churn|meas> applied=<0|1>
    SHED <id> class=<c> reason=<queue_full|rate_limit|pressure|draining>
    TIMEOUT <id> waited=<ticks> deadline=<ticks>
    REJECTED <id> reason=<r> attempts=<n>
    HEALTH mode=<normal|degraded|draining> members=<n> staleness=<ticks> q_churn=<n> q_query=<n> q_meas=<n>
    STATS <metrics-registry json>
    SNAPSHOTTING
    DRAINING
    ERR <reason>
    v}

    [<id>] is a client-chosen token (no spaces, no ['=']) echoed back on
    the response, which is how responses are matched to requests —
    admitted work answers out of order with respect to other classes.
    Parsing and rendering are pure; both transports share them.

    The reader's grammar, exactly:
    - The line splits at spaces into words, each trimmed of leading and
      trailing tab, newline, carriage return and form feed (what
      [String.trim] strips).  A word that trims to nothing is skipped, so
      runs of spaces, leading and trailing blanks and blank words
      separate nothing.  Verbs and keys are case-sensitive; the line may
      hold any number of words.
    - No word at all is [ERR empty line].
    - [PING], [HEALTH], [STATS], [SNAPSHOT] and [SHUTDOWN] must stand
      alone on the line.
    - [QUERY], [JOIN], [LEAVE] and [MEAS] take the id as the next word,
      which must hold no ['='].  Every later word of the form
      [key=value] is a field: the key is the bytes before the word's
      first ['='], the value the bytes after it, possibly empty or
      holding more ['=']s.  The first word of each key counts.  Later
      words of that key, words of other keys, words without ['='] and
      words that start with ['='] are ignored.
    - A value is read by [int_of_string_opt] or [float_of_string_opt],
      so what those accept counts: a sign, [0x]/[0o]/[0b]/[0u]
      prefixes, [_] separators, exponents, [nan] and [inf].  A decimal
      int beyond the int range does not read, and a float beyond the
      float range reads as an infinity.  A
      required field that is missing or does not read makes the line
      [ERR QUERY needs k=<int> b=<float> [deadline=<ticks>]] (likewise
      [JOIN needs host=<int>], [LEAVE needs host=<int>] and
      [MEAS needs src=<int> dst=<int> bw=<float>]).  A [deadline] that is
      missing or does not read is no deadline.
    - Anything else, a lone verb that has company, an id verb without a
      valid id, or an unknown verb, is
      [ERR unknown or malformed request "<verb>"], the first word
      written as an OCaml string literal. *)

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

type served =
  | Live   (** routed through the decentralized protocol (Algorithm 4) *)
  | Index  (** answered from the last consistent centralized index *)

type response =
  | Pong
  | Answer of {
      id : string;
      cluster : int list option;
      hops : int;
      served : served;
      degraded : bool;
      staleness : int;  (** ticks since the aggregation last converged *)
      bounds : (int * int) option;
          (** always [None] from the reactor, which renders no trailer;
              [Some (lo, hi)] renders [ lo=<n> hi=<n>].  Vestigial:
              slated for removal *)
    }
  | Acked of { id : string; cls : string; applied : bool }
      (** ingestion accepted.  For churn, [applied = false] means a
          no-op (already in the requested state); a [MEAS] is always
          [applied = false], because the reactor drops the measured
          value *)
  | Shed of { id : string; cls : string; reason : string }
  | Timeout of { id : string; waited : int; deadline : int }
  | Rejected of { id : string; reason : string; attempts : int }
      (** permanently failed ingestion (bad host, or retries exhausted) *)
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

val parse : string -> (request, string) result
(** The grammar above.  [Error] carries the reason the reactor echoes
    back as [ERR].  The line is read in place: only the id and the values
    it converts are copied out of it. *)

val render : response -> string
(** The canonical single-line rendering (no trailing newline), written
    into one buffer. *)
