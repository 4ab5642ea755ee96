let best ~n ~dist ~targets =
  if targets = [] then None
  else begin
    let is_target = Array.make n false in
    List.iter (fun s -> is_target.(s) <- true) targets;
    let best = ref None in
    for x = 0 to n - 1 do
      if not is_target.(x) then begin
        let radius = List.fold_left (fun acc s -> Float.max acc (dist x s)) 0.0 targets in
        match !best with
        | Some (_, r) when r <= radius -> ()
        | _ -> best := Some (x, radius)
      end
    done;
    !best
  end
