(** Environment metadata stamped into every benchmark report and the
    server's METRICS build info. *)

type t = {
  ocaml_version : string;
  git_sha : string;  (** "unknown" outside a git checkout *)
  dirty : bool;  (** uncommitted changes in the tree the run came from *)
  hostname : string;
  word_size : int;
  os_type : string;
}

val capture : unit -> t
(** The current process environment.  The git SHA is resolved from
    [.git/HEAD] (searching upward from the cwd), with [$TKR_GIT_SHA] as
    an override for builds from exported trees.  [dirty] comes from
    [git status --porcelain] ([$TKR_GIT_DIRTY] overrides; clean when git
    is unavailable) — a report stamped [git <sha>+dirty] did not come
    from the commit its SHA names. *)

val to_json : t -> Tkr_obs.Json.t
