(* Cross-module call graph and reference index over Parsetrees.

   Each .ml file is one compilation unit; its module name is the
   capitalized basename (lib/sim/engine.ml -> Engine).  Because several
   directories reuse unit names (lib/sim/engine.ml vs
   lib/analysis/engine.ml), defs are keyed internally by
   (directory, qualified name) while the display name stays the
   familiar "Engine.run_round".

   One scope-aware walk per unit visits every identifier wherever it
   sits: a named def (the reference becomes a call edge of that def), a
   [let () =] body, a functor body, a partial application or a function
   passed as an argument (the reference is recorded for the unit).
   Resolution is purely syntactic:
     1. names bound by an enclosing [fun], [let], [match]/[try] case,
        [for] or [let*] are locals, never references;
     2. a bare name is a candidate in each enclosing submodule of its
        unit, innermost first, then in each module opened or included
        in scope; the call edge goes to the first candidate that is a
        def;
     3. a module path resolves, in priority order, to a [let module] or
        functor parameter in scope, a submodule of an enclosing scope, a
        submodule of an opened module, a file-level alias
        ([module P = Protocol], expanded transitively), a unit in the
        same directory, a unit in exactly one scanned directory, or a
        wrapped-library path ([Bwc_sim.Engine.run] via the
        bwc_<d> <-> lib/<d> convention).
   A path whose head names no module of the program (Stdlib, Cmdliner)
   is external.  A path through a module of the program that does not
   resolve (a functor application, an unpacked first-class module, a
   unit name two other directories share) becomes a [Named] reference
   that stands for every value with that name: the call graph misses
   such edges and the reference index over-approximates them, but
   neither records a wrong target. *)

type call = {
  callee : string;  (* internal id of the target def *)
  call_line : int;
  call_col : int;
}

type def = {
  id : string;  (* dir ^ "//" ^ name — unique across same-named units *)
  name : string;  (* display: "Engine.run_round", "Registry.Counter.incr" *)
  unit_dir : string;
  def_file : string;
  def_line : int;
  def_col : int;
  body : Parsetree.expression;
  is_toplevel_value : bool;
      (* a plain [let x = ...] at structure level (not syntactically a
         function) — the domain-safety pass scans these *)
  mutable calls : call list;
}

type target = Value of string | Prefix of string | Named of string

type t = {
  by_id : (string, def) Hashtbl.t;
  all : def list;  (* sorted by id *)
  refs : (string * target list) list;  (* per .ml file, sorted by path *)
}

let normalize_path path =
  String.map (fun c -> if c = '\\' then '/' else c) path

let unit_name path =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename (normalize_path path)))

let unit_dir path = Filename.dirname (normalize_path path)
let id_of ~dir name = dir ^ "//" ^ name

(* bwc_<d> wrapped-library prefix -> lib/<d> directory *)
let lib_dir_of_prefix m =
  let lower = String.lowercase_ascii m in
  if String.length lower > 4 && String.sub lower 0 4 = "bwc_" then
    Some ("lib/" ^ String.sub lower 4 (String.length lower - 4))
  else None

let module_path (lid : Longident.t) =
  Ast_scan.normalize (Ast_scan.flatten_longident lid)

(* ----- pass 1: defs, submodules and file-level module aliases ----- *)

type proto_def = {
  p_name : string;
  p_stack : string list;  (* enclosing submodules, innermost first *)
  p_expr : Parsetree.expression;
  p_loc : Location.t;
  p_toplevel_value : bool;
}

let rec is_syntactic_fun (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_newtype (_, e) | Pexp_constraint (e, _) -> is_syntactic_fun e
  | _ -> false

(* defs, the submodule paths (innermost-first stacks) that have a
   structure, every module name bound anywhere, and the aliases *)
let collect_file (str : Parsetree.structure) =
  let defs = ref [] and submodules = ref [] and names = ref [] in
  let aliases : (string, string list) Hashtbl.t = Hashtbl.create 8 in
  let rec item stack (si : Parsetree.structure_item) =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            let rec pat_name (p : Parsetree.pattern) =
              match p.ppat_desc with
              | Ppat_var { txt; _ } -> Some txt
              | Ppat_constraint (p, _) -> pat_name p
              | _ -> None
            in
            let name, named =
              match pat_name vb.pvb_pat with
              | Some n -> (n, true)
              | None ->
                  (* let () = ..., let _ = ..., destructuring lets:
                     unreferencable module-initialization code *)
                  ( Printf.sprintf "(init@%d)"
                      vb.pvb_loc.Location.loc_start.pos_lnum,
                    false )
            in
            defs :=
              {
                p_name = name;
                p_stack = stack;
                p_expr = vb.pvb_expr;
                p_loc = vb.pvb_pat.ppat_loc;
                p_toplevel_value = named && not (is_syntactic_fun vb.pvb_expr);
              }
              :: !defs)
          vbs
    | Pstr_module mb -> module_binding stack mb
    | Pstr_recmodule mbs -> List.iter (module_binding stack) mbs
    | _ -> ()
  and module_binding stack (mb : Parsetree.module_binding) =
    match mb.pmb_name.txt with
    | None -> ()
    | Some name ->
        names := name :: !names;
        module_expr stack name mb.pmb_expr
  and module_expr stack name (me : Parsetree.module_expr) =
    match me.pmod_desc with
    | Pmod_structure items ->
        submodules := (name :: stack) :: !submodules;
        List.iter (item (name :: stack)) items
    | Pmod_constraint (me, _) -> module_expr stack name me
    | Pmod_ident { txt; _ } -> Hashtbl.replace aliases name (module_path txt)
    | _ -> ()
  in
  List.iter (item []) str;
  (List.rev !defs, !submodules, !names, aliases)

(* innermost-first enclosing-scope prefixes: for unit U and
   innermost-first submodule stack [B; A] -> [[U;A;B]; [U;A]; [U]] *)
let scope_prefixes unit rev_stack =
  let rec go rs =
    (unit :: List.rev rs) :: (match rs with [] -> [] | _ :: tl -> go tl)
  in
  go rev_stack

(* ----- pass 2: the scope-aware walk ----- *)

module Names = Set.Make (String)

(* What a module path denotes: a module of the program, a wrapped
   library directory, a module of the program that does not resolve,
   or something outside the program. *)
type modref = Mod of string | Lib of string | Opaque | External

type scope = {
  stack : string list;  (* enclosing submodules, innermost first *)
  locals : Names.t;
  local_mods : (string * modref) list;  (* let module, functor params *)
  opens : modref list;  (* opened or included modules, innermost first *)
}

let pattern_binds (p : Parsetree.pattern) sc =
  let sc = ref sc in
  let open Ast_iterator in
  let pat it (p : Parsetree.pattern) =
    (match p.ppat_desc with
    | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) ->
        sc := { !sc with locals = Names.add txt !sc.locals }
    | Ppat_unpack { txt = Some m; _ } ->
        sc := { !sc with local_mods = (m, Opaque) :: !sc.local_mods }
    | _ -> ());
    default_iterator.pat it p
  in
  let it = { default_iterator with pat } in
  it.pat it p;
  !sc

type program = {
  p_by_id : (string, def) Hashtbl.t;
  modules : (string, unit) Hashtbl.t;  (* ids of units and submodules *)
  dirs_of_unit : (string, string list) Hashtbl.t;
  module_names : (string, unit) Hashtbl.t;  (* every module name bound *)
}

(* Walk one unit: fill the call lists of its defs, return every
   reference target in source order. *)
let walk prog ~dir ~unit ~aliases ~def_at str =
  let refs = ref [] in
  let cur_def = ref None in
  let sc = ref { stack = []; locals = Names.empty; local_mods = []; opens = [] } in
  let scoped sc' f =
    let saved = !sc in
    sc := sc';
    f ();
    sc := saved
  in
  let is_module id = Hashtbl.mem prog.modules id in
  (* the submodule [c] of a resolved module *)
  let child r c =
    match r with
    | Mod id when is_module (id ^ "." ^ c) -> Some (Mod (id ^ "." ^ c))
    | Lib d when is_module (id_of ~dir:d c) -> Some (Mod (id_of ~dir:d c))
    | _ -> None
  in
  let rec resolve fuel path =
    match path with
    | [] -> External
    | m :: rest ->
        let head =
          match List.assoc_opt m !sc.local_mods with
          | Some r -> r
          | None -> (
              match
                List.find_map
                  (fun prefix ->
                    let id = id_of ~dir (String.concat "." prefix ^ "." ^ m) in
                    if is_module id then Some (Mod id) else None)
                  (scope_prefixes unit !sc.stack)
              with
              | Some r -> r
              | None -> (
                  match List.find_map (fun o -> child o m) !sc.opens with
                  | Some r -> r
                  | None -> (
                      match Hashtbl.find_opt aliases m with
                      | Some target when fuel > 0 -> resolve (fuel - 1) target
                      | _ -> (
                          if is_module (id_of ~dir m) then Mod (id_of ~dir m)
                          else
                            match Hashtbl.find_opt prog.dirs_of_unit m with
                            | Some [ d ] -> Mod (id_of ~dir:d m)
                            | _ -> (
                                match lib_dir_of_prefix m with
                                | Some d -> Lib d
                                | None ->
                                    if Hashtbl.mem prog.module_names m then
                                      Opaque
                                    else External)))))
        in
        List.fold_left
          (fun r c ->
            match r with
            | Mod _ | Lib _ -> Option.value ~default:Opaque (child r c)
            | Opaque | External -> r)
          head rest
  in
  let add_call callee (loc : Location.t) =
    match !cur_def with
    | Some d
      when callee.id <> d.id
           && not (List.exists (fun c -> c.callee = callee.id) d.calls) ->
        let pos = loc.Location.loc_start in
        d.calls <-
          {
            callee = callee.id;
            call_line = pos.pos_lnum;
            call_col = pos.pos_cnum - pos.pos_bol;
          }
          :: d.calls
    | _ -> ()
  in
  let value_ref (lid : Longident.t) loc =
    let targets =
      match List.rev (module_path lid) with
      | [] -> []
      | [ x ] ->
          if Names.mem x !sc.locals then []
          else
            List.map
              (fun prefix -> Value (id_of ~dir (String.concat "." prefix ^ "." ^ x)))
              (scope_prefixes unit !sc.stack)
            @ List.filter_map
                (function
                  | Mod id -> Some (Value (id ^ "." ^ x))
                  | Opaque -> Some (Named x)
                  | Lib _ | External -> None)
                !sc.opens
      | x :: rev_path -> (
          match resolve 5 (List.rev rev_path) with
          | Mod id -> [ Value (id ^ "." ^ x) ]
          | Lib _ | Opaque -> [ Named x ]
          | External -> [])
    in
    refs := List.rev_append targets !refs;
    match
      List.find_map
        (function Value id -> Hashtbl.find_opt prog.p_by_id id | _ -> None)
        targets
    with
    | Some callee -> add_call callee loc
    | None -> ()
  in
  (* a module path used as a whole (include, functor or functor
     argument, first-class packing) references every value under it *)
  let whole = function
    | Mod id -> [ Prefix (id ^ ".") ]
    | Lib d -> [ Prefix (d ^ "//") ]
    | Opaque -> [ Prefix "" ]
    | External -> []
  in
  let open Ast_iterator in
  let rec expr it (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> value_ref txt e.pexp_loc
    | Pexp_let (rf, vbs, body) ->
        let inner =
          List.fold_left
            (fun sc (vb : Parsetree.value_binding) -> pattern_binds vb.pvb_pat sc)
            !sc vbs
        in
        scoped
          (if rf = Asttypes.Recursive then inner else !sc)
          (fun () -> List.iter (fun vb -> it.expr it vb.Parsetree.pvb_expr) vbs);
        scoped inner (fun () -> it.expr it body)
    | Pexp_fun (_, default, p, body) ->
        Option.iter (it.expr it) default;
        scoped (pattern_binds p !sc) (fun () -> it.expr it body)
    | Pexp_function cases -> List.iter (case it) cases
    | Pexp_match (e, cases) | Pexp_try (e, cases) ->
        it.expr it e;
        List.iter (case it) cases
    | Pexp_for (p, a, b, _, body) ->
        it.expr it a;
        it.expr it b;
        scoped (pattern_binds p !sc) (fun () -> it.expr it body)
    | Pexp_letmodule (name, me, body) ->
        let r = bound_module it me in
        let sc' =
          match name.txt with
          | Some m -> { !sc with local_mods = (m, r) :: !sc.local_mods }
          | None -> !sc
        in
        scoped sc' (fun () -> it.expr it body)
    | Pexp_open (od, body) ->
        let r = bound_module it od.popen_expr in
        scoped { !sc with opens = r :: !sc.opens } (fun () -> it.expr it body)
    | Pexp_letop { let_; ands; body } ->
        let ops = let_ :: ands in
        List.iter (fun (op : Parsetree.binding_op) -> it.expr it op.pbop_exp) ops;
        scoped
          (List.fold_left
             (fun sc (op : Parsetree.binding_op) -> pattern_binds op.pbop_pat sc)
             !sc ops)
          (fun () -> it.expr it body)
    | _ -> default_iterator.expr it e
  and case it (c : Parsetree.case) =
    scoped (pattern_binds c.pc_lhs !sc) (fun () ->
        Option.iter (it.expr it) c.pc_guard;
        it.expr it c.pc_rhs)
  (* a module expression bound to a name, opened or included: a path
     is an alias, anything else is walked — its own module paths are
     whole-module references, so names reached through it are covered
     and count as external *)
  and bound_module it (me : Parsetree.module_expr) =
    match me.pmod_desc with
    | Pmod_ident { txt; _ } -> resolve 5 (module_path txt)
    | Pmod_constraint (me, _) -> bound_module it me
    | _ ->
        it.module_expr it me;
        External
  and module_expr it (me : Parsetree.module_expr) =
    match me.pmod_desc with
    | Pmod_ident { txt; _ } ->
        refs := List.rev_append (whole (resolve 5 (module_path txt))) !refs
    | Pmod_structure items ->
        scoped !sc (fun () -> List.iter (it.structure_item it) items)
    | Pmod_functor (Parsetree.Named ({ txt = Some p; _ }, _), body) ->
        scoped
          { !sc with local_mods = (p, Opaque) :: !sc.local_mods }
          (fun () -> it.module_expr it body)
    | _ -> default_iterator.module_expr it me
  and structure_item it (si : Parsetree.structure_item) =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
        (* a binding inside an expression-level structure stays
           attributed to the enclosing def *)
        let outer = !cur_def in
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            let pos = vb.pvb_pat.ppat_loc.Location.loc_start in
            cur_def :=
              (match Hashtbl.find_opt def_at pos.pos_cnum with
              | Some d -> Some d
              | None -> outer);
            it.expr it vb.pvb_expr)
          vbs;
        cur_def := outer
    | Pstr_module mb -> module_binding it mb
    | Pstr_recmodule mbs -> List.iter (module_binding it) mbs
    | Pstr_open od ->
        let r = bound_module it od.popen_expr in
        sc := { !sc with opens = r :: !sc.opens }
    | Pstr_include incl ->
        let r = bound_module it incl.pincl_mod in
        refs := List.rev_append (whole r) !refs;
        sc := { !sc with opens = r :: !sc.opens }
    | _ -> default_iterator.structure_item it si
  (* a named structure is a submodule scope; a path is an alias *)
  and module_binding it (mb : Parsetree.module_binding) =
    let rec go (me : Parsetree.module_expr) =
      match (me.pmod_desc, mb.pmb_name.txt) with
      | Pmod_ident _, _ -> ()
      | Pmod_constraint (me, _), _ -> go me
      | Pmod_structure items, Some name ->
          scoped { !sc with stack = name :: !sc.stack } (fun () ->
              List.iter (it.structure_item it) items)
      | _ -> it.module_expr it me
    in
    go mb.pmb_expr
  in
  let it = { default_iterator with expr; module_expr; structure_item } in
  List.iter (it.structure_item it) str;
  List.rev !refs

(* ----- build ----- *)

let build files =
  let prog =
    {
      p_by_id = Hashtbl.create 256;
      modules = Hashtbl.create 64;
      dirs_of_unit = Hashtbl.create 32;
      module_names = Hashtbl.create 64;
    }
  in
  let inserted = ref [] in
  let per_file = ref [] in
  (* pass 1: register every def and module *)
  List.iter
    (fun (path, file) ->
      match file with
      | Ast_scan.Signature _ -> ()
      | Ast_scan.Structure str ->
          let path = normalize_path path in
          let unit = unit_name path in
          let dir = unit_dir path in
          let protos, submodules, names, aliases = collect_file str in
          let dirs =
            Option.value ~default:[] (Hashtbl.find_opt prog.dirs_of_unit unit)
          in
          if not (List.mem dir dirs) then
            Hashtbl.replace prog.dirs_of_unit unit
              (List.sort String.compare (dir :: dirs));
          Hashtbl.replace prog.modules (id_of ~dir unit) ();
          List.iter
            (fun stack ->
              Hashtbl.replace prog.modules
                (id_of ~dir (String.concat "." (unit :: List.rev stack)))
                ())
            submodules;
          List.iter (fun n -> Hashtbl.replace prog.module_names n ()) (unit :: names);
          let def_at = Hashtbl.create 64 in
          List.iter
            (fun p ->
              let name =
                String.concat "." (unit :: List.rev (p.p_name :: p.p_stack))
              in
              let id = id_of ~dir name in
              (* first binding of a rebound top-level name wins; a rare
                 shadowing rebind would otherwise overwrite the node
                 other files already resolved against *)
              if not (Hashtbl.mem prog.p_by_id id) then begin
                let pos = p.p_loc.Location.loc_start in
                let d =
                  {
                    id;
                    name;
                    unit_dir = dir;
                    def_file = path;
                    def_line = pos.pos_lnum;
                    def_col = pos.pos_cnum - pos.pos_bol;
                    body = p.p_expr;
                    is_toplevel_value = p.p_toplevel_value;
                    calls = [];
                  }
                in
                Hashtbl.replace prog.p_by_id id d;
                Hashtbl.replace def_at pos.pos_cnum d;
                inserted := d :: !inserted
              end)
            protos;
          per_file := (path, dir, unit, aliases, def_at, str) :: !per_file)
    files;
  (* pass 2: resolve every reference *)
  let refs =
    List.map
      (fun (path, dir, unit, aliases, def_at, str) ->
        (path, walk prog ~dir ~unit ~aliases ~def_at str))
      (List.rev !per_file)
  in
  List.iter (fun d -> d.calls <- List.rev d.calls) !inserted;
  {
    by_id = prog.p_by_id;
    all = List.sort (fun a b -> String.compare a.id b.id) !inserted;
    refs = List.sort (fun (a, _) (b, _) -> String.compare a b) refs;
  }

let defs t = t.all
let find t id = Hashtbl.find_opt t.by_id id
let references t = t.refs

(* Reverse adjacency: callee id -> caller ids.  Callers may appear once
   per distinct edge; the taint worklist tolerates duplicates. *)
let callers t =
  let rev = Hashtbl.create 256 in
  List.iter
    (fun d ->
      List.iter
        (fun c ->
          let cur =
            match Hashtbl.find_opt rev c.callee with Some l -> l | None -> []
          in
          Hashtbl.replace rev c.callee (d.id :: cur))
        d.calls)
    t.all;
  rev
