"""repro.check: property-based differential checking of the whole stack.

The paper validates one implementation of RISC-V against another
(FireSim models vs SpacemiT/SOPHON silicon); this package does the same
thing internally and adversarially.  A seeded generator builds programs
around the ISA's sharp edges, and a differential oracle runs each one
through every independent execution path the repo ships — interpreter vs
golden bit-level semantics, batched vs serial sweeps,
checkpoint/restore vs straight-through, farm vs serial — plus an
invariant lint over the telemetry.  Failures are shrunk to minimal
repros and pinned in ``tests/check/corpus/``.

See ``docs/checking.md`` for the workflow, and ``repro check --seeds N``
for the CLI entry point.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "chaos": ["diff_chaos"],
    "golden": ["CANONICAL_NAN_BITS", "GoldenMachine"],
    "oracle": [
        "Divergence", "diff_batch", "diff_checkpoint",
        "diff_farm", "diff_golden", "lint_invariants", "run_program"],
    "progen": ["BLOCK_KINDS", "CheckProgram", "generate_program"],
    "runner": ["ALL_TIERS", "CheckReport", "run_check"],
    "shrink": [
        "CORPUS_DIR", "load_corpus", "replay_entries", "shrink_program",
        "write_corpus_entry"],
})
