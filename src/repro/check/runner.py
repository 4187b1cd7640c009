"""Top-level fuzz/check driver: generate, cross-check, shrink, report.

:func:`run_check` is what ``repro check --seeds N`` executes and what CI's
``check-smoke`` job calls: for each seed it generates a program and pushes
it through the oracle tiers of :mod:`repro.check.oracle`.  The cheap
architectural tiers (golden, lint) run on every seed; the timing tiers
are strided so a default run stays minutes, not hours, while every named
configuration and every tier still gets exercised:

* ``batch``: strided on its own offset — the config-batched sweep
  engine against serial per-config jobs (including a killed-and-resumed
  batched leg), on a microbench kernel and config pair the seed picks.
* ``checkpoint``: every ``STRIDE``-th seed.
* ``instrument``: same stride, offset by half, so the instrumented
  bit-identity proof exercises different seeds than ``checkpoint``.
* ``farm``: once per invocation, over the first ``FARM_SAMPLE``
  generated programs.
* ``chaos``: once per invocation, over the same sample — the serve
  layer under seeded fault schedules (worker kill, host stall, crash +
  ``recover=True`` restart, on-disk corruption), held to termination
  and bit-identity against a fault-free serial run.

On a divergence the failing program is shrunk (ddmin over source lines)
and written to the corpus, so the finding is reproducible before anyone
starts debugging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .chaos import diff_chaos
from .oracle import (Divergence, diff_batch, diff_checkpoint, diff_farm,
                     diff_golden, diff_instrument, lint_invariants,
                     run_program)
from .progen import CheckProgram, generate_program
from .shrink import (category_predicate, diff_category, shrink_program,
                     write_corpus_entry)

__all__ = ["CheckReport", "run_check", "ALL_TIERS"]

ALL_TIERS = ("golden", "lint", "batch", "checkpoint", "instrument", "farm",
             "chaos")

#: seeds between two runs of each strided timing tier
STRIDE = 5
#: programs the farm and chaos tiers run, once per invocation
FARM_SAMPLE = 3


@dataclass
class CheckReport:
    """Outcome of one checking run."""

    seeds: int
    divergences: list[Divergence] = field(default_factory=list)
    tier_programs: dict[str, int] = field(default_factory=dict)
    corpus_files: list[Path] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        lines = [f"repro check: {self.seeds} seed(s)"]
        for tier in ALL_TIERS:
            if tier in self.tier_programs:
                n_div = sum(1 for d in self.divergences if d.oracle == tier)
                state = "ok" if n_div == 0 else f"{n_div} divergence(s)"
                lines.append(f"  {tier:<10} {self.tier_programs[tier]:>4} "
                             f"program(s)  {state}")
        for div in self.divergences[:20]:
            lines.append(f"  ! {div}")
        if len(self.divergences) > 20:
            lines.append(f"  ... and {len(self.divergences) - 20} more")
        for path in self.corpus_files:
            lines.append(f"  shrunk repro written: {path}")
        lines.append("PASS: zero divergences" if self.ok
                     else f"FAIL: {len(self.divergences)} divergence(s)")
        return "\n".join(lines)


def _safe(tier: str, seed: int, fn: Callable[[], list[str]]
          ) -> list[Divergence]:
    """Run one oracle; an exception is itself a divergence."""
    try:
        details = fn()
    except Exception as exc:
        return [Divergence(tier, seed,
                           f"crash:{type(exc).__name__} {exc}")]
    return [Divergence(tier, seed, d) for d in details]


def run_check(seeds: int = 25, start_seed: int = 0,
              tiers: Sequence[str] = ALL_TIERS,
              shrink: bool = True,
              corpus_dir: Path | None = None,
              progress: Callable[[str], None] | None = None) -> CheckReport:
    """Generate *seeds* programs and run the selected oracle *tiers*.

    Returns a :class:`CheckReport`; ``report.ok`` is the pass/fail bit.
    """
    from ..soc.presets import ALL_CONFIGS

    say = progress or (lambda msg: None)
    unknown = set(tiers) - set(ALL_TIERS)
    if unknown:
        raise ValueError(f"unknown tier(s) {sorted(unknown)}; "
                         f"available: {list(ALL_TIERS)}")
    report = CheckReport(seeds=seeds)
    tier_count = {t: 0 for t in tiers}
    all_names = sorted(ALL_CONFIGS)
    farm_progs: list[CheckProgram] = []

    for n, seed in enumerate(range(start_seed, start_seed + seeds)):
        prog = generate_program(seed)
        say(f"seed {seed}: {len(prog.words)} instructions "
            f"[{', '.join(prog.blocks)}]")
        interp = None

        if "golden" in tiers:
            tier_count["golden"] += 1
            found = _safe("golden", seed, lambda: diff_golden(prog))
            report.divergences += found
            if found and shrink:
                report.corpus_files.append(_shrink_golden(
                    prog, found[0], corpus_dir, say))
                continue  # architectural state is wrong: skip timing tiers

        try:
            interp = run_program(prog)
            trace = interp.trace_so_far
        except Exception as exc:
            report.divergences.append(Divergence(
                "golden", seed, f"interpreter crash: "
                f"{type(exc).__name__}: {exc}"))
            continue

        if "lint" in tiers:
            tier_count["lint"] += 1
            report.divergences += _safe(
                "lint", seed, lambda: lint_invariants(trace))

        # strided on its own offset.  The batch oracle runs on microbench
        # kernels (the sweep engine's domain), not on the generated
        # program.  The seed picks the kernel and the config pair, so
        # any five consecutive runs cover every config
        if "batch" in tiers and n % STRIDE == STRIDE - 1:
            from ..workloads.microbench import runnable_kernels
            kernel_names = [k.spec.name for k in runnable_kernels()]
            kname = kernel_names[seed % len(kernel_names)]
            i = 2 * (seed // STRIDE) % len(all_names)
            pair = [all_names[i], all_names[(i + 1) % len(all_names)]]
            tier_count["batch"] += 1
            report.divergences += _safe(
                "batch", seed,
                lambda: diff_batch(kname, config_names=pair, seed=seed))

        if "checkpoint" in tiers and n % STRIDE == 0:
            tier_count["checkpoint"] += 1
            report.divergences += _safe(
                "checkpoint", seed, lambda: diff_checkpoint(trace, seed))

        # strided like checkpoint (it embeds a checkpoint/restore), but
        # offset so the two timing tiers hit different seeds
        if "instrument" in tiers and n % STRIDE == STRIDE // 2:
            tier_count["instrument"] += 1
            report.divergences += _safe(
                "instrument", seed, lambda: diff_instrument(trace, seed))

        if (("farm" in tiers or "chaos" in tiers)
                and len(farm_progs) < FARM_SAMPLE):
            farm_progs.append(prog)

    if "farm" in tiers and farm_progs:
        tier_count["farm"] = len(farm_progs)
        say(f"farm tier: {len(farm_progs)} program(s), 2 workers + replay")
        report.divergences += _safe("farm", farm_progs[0].seed,
                                    lambda: diff_farm(farm_progs))

    if "chaos" in tiers and farm_progs:
        tier_count["chaos"] = len(farm_progs)
        say(f"chaos tier: {len(farm_progs)} program(s), crash/recover "
            f"+ host stall")
        report.divergences += _safe("chaos", farm_progs[0].seed,
                                    lambda: diff_chaos(farm_progs))

    report.tier_programs = {t: c for t, c in tier_count.items() if c}
    return report


def _shrink_golden(prog: CheckProgram, first: Divergence,
                   corpus_dir: Path | None,
                   say: Callable[[str], None]) -> Path:
    say(f"shrinking golden divergence for seed {prog.seed} ...")
    category = diff_category(first.detail)
    fails = category_predicate(diff_golden, category)
    small = shrink_program(prog, fails)
    path = write_corpus_entry(small, "golden", first.detail,
                              corpus_dir=corpus_dir)
    say(f"wrote {path} ({len(small.words)} instructions)")
    return path
