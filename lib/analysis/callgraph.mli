(** Cross-module call graph and reference index over untyped
    Parsetrees.

    Each scanned [.ml] file is a compilation unit named by its
    capitalized basename; defs are keyed by (directory, qualified name)
    so same-named units in different libraries (lib/sim/engine.ml vs
    lib/analysis/engine.ml) never alias.  One scope-aware walk per unit
    resolves every identifier — in named defs, [let () =] bodies,
    functor bodies, partial applications — through local bindings,
    nested submodules, opens, module aliases ([module P = Protocol]),
    intra-directory unit references and wrapped-library paths
    ([Bwc_sim.Engine.run] via the bwc_<d> <-> lib/<d> convention).
    Misses are conservative: an unresolvable reference produces no
    edge, never a wrong one, and a [Named] reference. *)

type call = {
  callee : string;  (** internal id of the target def *)
  call_line : int;
  call_col : int;
}

type def = {
  id : string;  (** [dir ^ "//" ^ name] — unique across same-named units *)
  name : string;  (** display name, e.g. ["Engine.run_round"] *)
  unit_dir : string;
  def_file : string;
  def_line : int;
  def_col : int;
  body : Parsetree.expression;
  is_toplevel_value : bool;
      (** a structure-level [let x = ...] that is not syntactically a
          function — input to the domain-safety pass *)
  mutable calls : call list;  (** resolved, deduped, in source order *)
}

type target =
  | Value of string  (** a value's id, [dir ^ "//" ^ "Unit.Sub.name"] *)
  | Prefix of string
      (** a module used as a whole (include, functor argument,
          first-class packing): every value whose id starts with this *)
  | Named of string
      (** an unresolved path through a module of the program: every
          value with this name *)

type t

val build : (string * Ast_scan.file) list -> t
(** Build the graph over every parsed structure (signatures are
    ignored).  Paths select unit names and directories. *)

val defs : t -> def list
(** All defs, sorted by id — deterministic traversal order. *)

val find : t -> string -> def option
(** Look up a def by internal id. *)

val references : t -> (string * target list) list
(** Every reference of each scanned [.ml] file, sorted by path; a bare
    name yields one [Value] per scope it may come from. *)

val callers : t -> (string, string list) Hashtbl.t
(** Reverse adjacency: callee id -> caller ids (possibly with
    duplicates; consumers must tolerate them). *)

val unit_name : string -> string
(** ["lib/sim/engine.ml"] -> ["Engine"]. *)

val unit_dir : string -> string
(** ["lib/sim/engine.ml"] -> ["lib/sim"]. *)
