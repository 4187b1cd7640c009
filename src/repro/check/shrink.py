"""Delta-debugging shrinker and the on-disk regression corpus.

When an oracle flags a generated program, :func:`shrink_program` reduces
it to a (locally) minimal assembly source that still fails the same
predicate: classic ddmin over source lines followed by a greedy
single-line pass, re-assembling every candidate (candidates that no
longer assemble — e.g. a removed label — simply don't reproduce).

Minimal repros are written to ``tests/check/corpus/`` by
:func:`write_corpus_entry` with a small comment header recording the
oracle tier, the generating seed, and the divergence it proved.  The
corpus replay test re-runs every entry's oracle forever after, so each
bug the fuzzer ever found stays a permanent regression test.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Callable, Iterable

from .progen import CheckProgram

__all__ = [
    "CORPUS_DIR",
    "load_corpus",
    "shrink_program",
    "write_corpus_entry",
]

#: default corpus location, relative to the repository root
CORPUS_DIR = Path(__file__).resolve().parents[3] / "tests" / "check" / "corpus"

Predicate = Callable[[CheckProgram], bool]


def diff_category(line: str) -> str:
    """Coarse failure family of one divergence line.

    Shrinking with a bare "any divergence" predicate converges on
    whatever bug has the smallest repro, not the one being shrunk; the
    category pins the family (memory vs f-register vs crash ...) so the
    minimal program still demonstrates the original finding.
    """
    if line.startswith("crash:"):
        return line.split(" ", 1)[0]
    head = line.split(":", 1)[0]
    if head.startswith("mem["):
        return "mem"
    if head and head[0] == "f" and head[1:].isdigit():
        return "freg"
    if head and head[0] == "x" and head[1:].isdigit():
        return "xreg"
    return head


def category_predicate(diff_fn: Callable[[CheckProgram], list[str]],
                       category: str) -> Predicate:
    """Predicate: *diff_fn* still reports a divergence of *category*
    (a crash reproduces a ``crash:``-category failure)."""

    def fails(p: CheckProgram) -> bool:
        try:
            diffs = diff_fn(p)
        except Exception as exc:
            return category == f"crash:{type(exc).__name__}"
        return any(diff_category(d) == category for d in diffs)

    return fails


def _candidate(prog: CheckProgram, lines: list[str]) -> CheckProgram | None:
    source = "\n".join(lines) + "\n"
    cand = CheckProgram(seed=prog.seed, source=source, base=prog.base)
    try:
        if not cand.words:
            return None
    except Exception:
        return None  # doesn't assemble (dropped label, empty, ...)
    return cand


def _still_fails(prog: CheckProgram, lines: list[str],
                 predicate: Predicate) -> CheckProgram | None:
    cand = _candidate(prog, lines)
    if cand is None:
        return None
    try:
        return cand if predicate(cand) else None
    except Exception:
        # the predicate itself failed; wrap crashes you want to count as
        # reproducing with category_predicate("crash:...") instead
        return None


def shrink_program(prog: CheckProgram, predicate: Predicate,
                   max_checks: int = 400) -> CheckProgram:
    """Reduce *prog* to a smaller program for which *predicate* holds.

    *predicate* returns True while the failure reproduces (it may also
    raise, which counts as reproducing).  Returns the smallest program
    found; *prog* itself if nothing smaller reproduces.
    """
    lines = [ln for ln in prog.source.splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    best = _candidate(prog, lines) or prog
    checks = 0

    # ddmin: try dropping progressively smaller chunks
    n = 2
    while len(lines) >= 2 and checks < max_checks:
        chunk = max(1, len(lines) // n)
        reduced = False
        start = 0
        while start < len(lines) and checks < max_checks:
            cand_lines = lines[:start] + lines[start + chunk:]
            checks += 1
            cand = _still_fails(prog, cand_lines, predicate)
            if cand is not None:
                lines, best = cand_lines, cand
                reduced = True
                n = max(n - 1, 2)
            else:
                start += chunk
        if not reduced:
            if chunk <= 1:
                break
            n = min(n * 2, len(lines))

    # greedy single-line polish until a fixpoint
    changed = True
    while changed and checks < max_checks:
        changed = False
        for i in range(len(lines) - 1, -1, -1):
            cand_lines = lines[:i] + lines[i + 1:]
            checks += 1
            cand = _still_fails(prog, cand_lines, predicate)
            if cand is not None:
                lines, best = cand_lines, cand
                changed = True
            if checks >= max_checks:
                break
    return best


# -- corpus ------------------------------------------------------------------

_HEADER_RE = re.compile(r"^#\s*(oracle|seed|divergence):\s*(.*)$")


def write_corpus_entry(prog: CheckProgram, oracle: str, divergence: str,
                       name: str | None = None,
                       corpus_dir: Path | None = None) -> Path:
    """Persist a shrunk repro as ``<corpus>/<name>.s`` and return the path."""
    corpus = Path(corpus_dir) if corpus_dir is not None else CORPUS_DIR
    corpus.mkdir(parents=True, exist_ok=True)
    if name is None:
        name = f"{oracle}_seed{prog.seed}"
    path = corpus / f"{name}.s"
    first_line = divergence.splitlines()[0] if divergence else ""
    header = (
        f"# repro.check shrunk regression\n"
        f"# oracle: {oracle}\n"
        f"# seed: {prog.seed}\n"
        f"# divergence: {first_line}\n"
    )
    path.write_text(header + prog.source)
    return path


def load_corpus(corpus_dir: Path | None = None
                ) -> list[tuple[str, str, CheckProgram]]:
    """Load every corpus entry as ``(name, oracle, program)``."""
    corpus = Path(corpus_dir) if corpus_dir is not None else CORPUS_DIR
    entries: list[tuple[str, str, CheckProgram]] = []
    if not corpus.is_dir():
        return entries
    for path in sorted(corpus.glob("*.s")):
        oracle, seed = "golden", -1
        for line in path.read_text().splitlines():
            m = _HEADER_RE.match(line.strip())
            if m and m.group(1) == "oracle":
                oracle = m.group(2).strip()
            elif m and m.group(1) == "seed":
                try:
                    seed = int(m.group(2))
                except ValueError:
                    pass
        prog = CheckProgram(seed=seed, source=path.read_text())
        entries.append((path.stem, oracle, prog))
    return entries


def replay_entries(entries: Iterable[tuple[str, str, CheckProgram]]
                   ) -> list[str]:
    """Re-run each corpus entry through the golden oracle (the one tier
    that shrinks into the corpus); returns failure strings."""
    from .oracle import diff_golden

    failures: list[str] = []
    for name, _oracle, prog in entries:
        try:
            diffs = diff_golden(prog)
        except Exception as exc:  # a crash is a failure too
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        failures += [f"{name}: {d}" for d in diffs]
    return failures
