(* lbclint: determinism & domain-safety analyzer for this repository.

   Walks every .ml/.mli under the given roots (default: lib bin bench
   test examples), enforces rules D1-D6 (see lib/lint/rules.mli),
   honours inline suppressions and the checked-in baseline, and exits
   0 (clean), 1 (findings) or 2 (configuration/parse error). With
   --deep it additionally loads the .cmt/.cmti typed ASTs dune emitted
   under _build/default and runs the whole-program rules E1/E2/E3/E4/M1
   (gating) and X1 (advisory). This is the repository's one lint
   front-end: `dune build @lint` and ci.sh both run it. *)

open Cmdliner

let do_lint roots baseline write_baseline update_baseline json deep sarif
    deep_cache =
  Lbc_lint.Driver.main
    {
      Lbc_lint.Driver.roots;
      baseline;
      write_baseline;
      update_baseline;
      json;
      deep;
      sarif;
      deep_cache;
    }

let roots_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"PATH"
        ~doc:
          "Files or directories to lint (default: lib bin bench test \
           examples). Directories named _build, .git, lint_fixtures and \
           deep_fixtures are skipped during recursion.")

let baseline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:
          "Checked-in baseline of grandfathered findings (RULE FILE COUNT \
           per line; rules D2/D4/D5 and the deep rules E1-E4/M1/X1 are \
           baselinable).")

let write_baseline_arg =
  Arg.(
    value & flag
    & info [ "write-baseline" ]
        ~doc:
          "Regenerate $(b,--baseline) from the current findings instead of \
           gating on it. Non-baselinable findings (D1/D3/D6, malformed \
           suppressions) are printed and keep the exit code non-zero.")

let update_baseline_arg =
  Arg.(
    value & flag
    & info [ "update-baseline" ]
        ~doc:
          "Shrink $(b,--baseline) to the current findings: per-entry counts \
           drop to what the run still produces, entries that reach zero are \
           removed, and no entry is ever added or grown. The gate then runs \
           against the shrunk baseline.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit a machine-readable lbclint/3 JSON report instead of \
           human-readable lines.")

let deep_arg =
  Arg.(
    value & flag
    & info [ "deep" ]
        ~doc:
          "Also run the whole-program pass over the typed ASTs under \
           _build/default (requires a prior $(b,dune build)): E1 \
           nondeterminism taint into verdict/artifact/fingerprint paths, \
           E2 unguarded cross-domain mutable state, E3 lockset data races \
           (no common mutex across spawn-reachable access paths), E4 \
           check-then-act atomicity violations, M1 the local-broadcast \
           model invariant (no Engine.Unicast outside lib/adversary and \
           lib/lowerbound), and the advisory X1 dead-export report.")

let sarif_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "sarif" ] ~docv:"FILE"
        ~doc:
          "Also write the findings as a SARIF 2.1.0 document to $(docv) \
           (suppressed and baselined findings included with their \
           suppression kind).")

let deep_cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "deep-cache" ] ~docv:"DIR"
        ~doc:
          "Incremental cache directory for the $(b,--deep) pass: per-unit \
           analysis summaries keyed by .cmt digests and the program \
           closure, so a warm run re-analyzes only changed modules.")

let cmd =
  Cmd.v
    (Cmd.info "lbclint" ~version:"1.1.0"
       ~doc:
         "Static determinism & domain-safety analyzer (rules D1-D6, deep \
          rules E1/E2/E3/E4/M1/X1) for the lbcast repository.")
    Term.(
      const do_lint $ roots_arg $ baseline_arg $ write_baseline_arg
      $ update_baseline_arg $ json_arg $ deep_arg $ sarif_arg $ deep_cache_arg)

let () = exit (Cmd.eval' cmd)
