(* Per-line suppression comments:

     (* bwclint: allow <rule> -- <reason> *)
     (* bwclint: allow <rule-a>, <rule-b> -- <reason> *)

   The word "all" instead of a rule list suppresses every rule.  A
   suppression applies to findings on its own line and on the line
   directly below it, so both trailing comments and a standalone
   comment above the offending expression work.

   The "-- <reason>" clause is the audit trail: it is surfaced by the
   JSON and SARIF reporters so every escape hatch carries its
   justification with it.  A suppression without a reason is itself
   reported (suppression-missing-reason). *)

type entry = {
  s_line : int;  (* line the comment appears on, 1-based *)
  rules : string list;  (* [] means all rules *)
  reason : string option;  (* the "-- ..." justification, if any *)
  mutable used : bool;
}

type t = { entries : entry list }

let marker = "bwclint:"

let is_rule_char c =
  (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-'

(* Parse " allow rule-a, rule-b -- reason *)..." starting just after
   [marker]; returns the listed rule ids ([] for "all") and the reason,
   or None if the text after the marker is not an allow clause. *)
let parse_clause text =
  let n = String.length text in
  let rec skip_ws i = if i < n && (text.[i] = ' ' || text.[i] = '\t') then skip_ws (i + 1) else i in
  let i = skip_ws 0 in
  if i + 5 > n || String.sub text i 5 <> "allow" then None
  else begin
    let rec words i acc =
      let i = skip_ws i in
      (* "--" opens the reason clause; rule ids never start with '-' *)
      if
        i >= n
        || not (is_rule_char text.[i])
        || (text.[i] = '-' && i + 1 < n && text.[i + 1] = '-')
      then (List.rev acc, i)
      else begin
        let j = ref i in
        while !j < n && is_rule_char text.[!j] do incr j done;
        let word = String.sub text i (!j - i) in
        let k = skip_ws !j in
        let k = if k < n && text.[k] = ',' then k + 1 else k in
        words k (word :: acc)
      end
    in
    let listed, after = words (i + 5) [] in
    let reason =
      let i = skip_ws after in
      if i + 2 <= n && String.sub text i 2 = "--" then begin
        let rest = String.sub text (i + 2) (n - i - 2) in
        (* the comment closer (and anything beyond) is not reason text *)
        let rest =
          let m = String.length rest in
          let rec close j =
            if j + 2 > m then rest
            else if String.sub rest j 2 = "*)" then String.sub rest 0 j
            else close (j + 1)
          in
          close 0
        in
        match String.trim rest with "" -> None | r -> Some r
      end
      else None
    in
    match listed with
    | [] -> None
    | [ "all" ] -> Some ([], reason)
    | rules -> Some (rules, reason)
  end

let scan_line ~line_no line acc =
  let rec from start acc =
    match
      (* find the next occurrence of [marker] *)
      let n = String.length line and m = String.length marker in
      let rec search i =
        if i + m > n then None
        else if String.sub line i m = marker then Some i
        else search (i + 1)
      in
      search start
    with
    | None -> acc
    | Some i ->
        let rest = String.sub line (i + String.length marker)
            (String.length line - i - String.length marker)
        in
        let acc =
          match parse_clause rest with
          | Some (rules, reason) ->
              { s_line = line_no; rules; reason; used = false } :: acc
          | None -> acc
        in
        from (i + String.length marker) acc
  in
  from 0 acc

let scan source =
  let entries = ref [] in
  let line_no = ref 0 in
  String.split_on_char '\n' source
  |> List.iter (fun line ->
         incr line_no;
         entries := scan_line ~line_no:!line_no line !entries);
  { entries = List.rev !entries }

let find t ~rule ~line =
  let matching e =
    (e.s_line = line || e.s_line = line - 1)
    && (e.rules = [] || List.mem rule e.rules)
  in
  match List.find_opt matching t.entries with
  | Some e ->
      e.used <- true;
      Some e
  | None -> None

let entries t = t.entries
