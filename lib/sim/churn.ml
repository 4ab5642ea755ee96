type event =
  | Join of int
  | Leave of int

type t = { by_round : (int, event list) Hashtbl.t }

let scripted events =
  let by_round = Hashtbl.create 16 in
  List.iter
    (fun (round, ev) ->
      let cur = match Hashtbl.find_opt by_round round with Some l -> l | None -> [] in
      Hashtbl.replace by_round round (ev :: cur))
    events;
  (* stored reversed to keep inserts O(1); flip once into schedule order.
     Order-independent: each bucket is rewritten in isolation. *)
  (* bwclint: allow no-unordered-hashtbl-iter -- each round bucket is flipped into schedule order in isolation *)
  Hashtbl.filter_map_inplace (fun _ evs -> Some (List.rev evs)) by_round;
  { by_round }

let random ~rng ~n ~rounds ~leave_prob ~rejoin_prob =
  let up = Array.make n true in
  let events = ref [] in
  for round = 0 to rounds - 1 do
    for i = 1 to n - 1 do
      if up.(i) then begin
        if Bwc_stats.Rng.float rng 1.0 < leave_prob then begin
          up.(i) <- false;
          events := (round, Leave i) :: !events
        end
      end
      else if Bwc_stats.Rng.float rng 1.0 < rejoin_prob then begin
        up.(i) <- true;
        events := (round, Join i) :: !events
      end
    done
  done;
  scripted (List.rev !events)

let events_at t round =
  match Hashtbl.find_opt t.by_round round with Some l -> l | None -> []
