(** Environment metadata stamped into every benchmark report, so a result
    says which commit, machine and toolchain produced it. *)

module Json = Tkr_obs.Json

type t = {
  ocaml_version : string;
  git_sha : string;  (** "unknown" outside a git checkout *)
  dirty : bool;  (** uncommitted changes in the tree the run came from *)
  hostname : string;
  word_size : int;
  os_type : string;
}

(* The current commit without shelling out: resolve .git/HEAD (following
   one level of "ref:" indirection, checking packed-refs for the rest).
   $TKR_GIT_SHA overrides, for builds from exported trees. *)
let detect_git_sha () : string =
  match Sys.getenv_opt "TKR_GIT_SHA" with
  | Some sha when sha <> "" -> sha
  | _ -> (
      let read_line path =
        try
          let ic = open_in path in
          let line = try input_line ic with End_of_file -> "" in
          close_in ic;
          Some (String.trim line)
        with Sys_error _ -> None
      in
      let rec find_git_dir dir depth =
        if depth > 6 then None
        else
          let cand = Filename.concat dir ".git" in
          if Sys.file_exists cand && Sys.is_directory cand then Some cand
          else
            let parent = Filename.dirname dir in
            if parent = dir then None else find_git_dir parent (depth + 1)
      in
      match find_git_dir (Sys.getcwd ()) 0 with
      | None -> "unknown"
      | Some git_dir -> (
          match read_line (Filename.concat git_dir "HEAD") with
          | None -> "unknown"
          | Some head ->
              if String.length head >= 5 && String.sub head 0 5 = "ref: " then
                let ref_name =
                  String.trim (String.sub head 5 (String.length head - 5))
                in
                match read_line (Filename.concat git_dir ref_name) with
                | Some sha when sha <> "" -> sha
                | _ -> (
                    (* packed refs: "<sha> <ref>" lines *)
                    try
                      let ic =
                        open_in (Filename.concat git_dir "packed-refs")
                      in
                      let found = ref "unknown" in
                      (try
                         while true do
                           let line = input_line ic in
                           match String.index_opt line ' ' with
                           | Some i
                             when String.sub line (i + 1)
                                    (String.length line - i - 1)
                                  = ref_name ->
                               found := String.sub line 0 i;
                               raise Exit
                           | _ -> ()
                         done
                       with End_of_file | Exit -> ());
                      close_in ic;
                      !found
                    with Sys_error _ -> "unknown")
              else head))

(* Whether the checkout has uncommitted changes: any output from
   [git status --porcelain].  $TKR_GIT_DIRTY overrides (CI stamps it
   without needing git in the runner image); outside a checkout, or
   without git on PATH, the tree counts as clean. *)
let detect_dirty () : bool =
  match Sys.getenv_opt "TKR_GIT_DIRTY" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ -> false
  | None -> (
      try
        let ic =
          Unix.open_process_in "git status --porcelain 2>/dev/null"
        in
        let line = try Some (input_line ic) with End_of_file -> None in
        ignore (Unix.close_process_in ic);
        line <> None
      with Unix.Unix_error _ | Sys_error _ -> false)

let capture () : t =
  {
    ocaml_version = Sys.ocaml_version;
    git_sha = detect_git_sha ();
    dirty = detect_dirty ();
    hostname = (try Unix.gethostname () with Unix.Unix_error _ -> "unknown");
    word_size = Sys.word_size;
    os_type = Sys.os_type;
  }

let to_json (e : t) : Json.t =
  Json.Obj
    [
      ("ocaml_version", Json.Str e.ocaml_version);
      ("git_sha", Json.Str e.git_sha);
      ("git_dirty", Json.Bool e.dirty);
      ("hostname", Json.Str e.hostname);
      ("word_size", Json.Int e.word_size);
      ("os_type", Json.Str e.os_type);
    ]
