type result = {
  cluster : int list option;
  hops : int;
  retries : int;
  path : int list;
}

let found r = r.cluster <> None
let not_found_at node = { cluster = None; hops = 0; retries = 0; path = [ node ] }
let no_members = { cluster = None; hops = 0; retries = 0; path = [] }

let pp_result ppf r =
  let pp_retries ppf n = if n > 0 then Format.fprintf ppf " (%d retries)" n in
  match r.cluster with
  | None -> Format.fprintf ppf "not found after %d hops%a" r.hops pp_retries r.retries
  | Some c ->
      Format.fprintf ppf "found {%s} after %d hops%a"
        (String.concat ", " (List.map string_of_int c))
        r.hops pp_retries r.retries
