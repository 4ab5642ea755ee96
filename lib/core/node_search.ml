module Space = Bwc_metric.Space

let best space ~targets ~exclude =
  if targets = [] then None
  else begin
    let forbidden = Hashtbl.create 16 in
    List.iter (fun x -> Hashtbl.replace forbidden x ()) targets;
    List.iter (fun x -> Hashtbl.replace forbidden x ()) exclude;
    let best = ref None in
    for x = 0 to space.Space.n - 1 do
      if not (Hashtbl.mem forbidden x) then begin
        let radius =
          List.fold_left (fun acc s -> Float.max acc (Space.dist space x s)) 0.0 targets
        in
        match !best with
        | Some (_, r) when r <= radius -> ()
        | _ -> best := Some (x, radius)
      end
    done;
    !best
  end
