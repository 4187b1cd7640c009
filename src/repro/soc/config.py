"""Chipyard-like SoC configuration: one object describes a whole system.

A :class:`SoCConfig` bundles the core kind and parameters, the memory
hierarchy, the branch-prediction front end, the clock, and the core count —
the same knobs Table 4/5 of the paper enumerates for the FireSim models and
the hardware platforms.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from ..core.inorder import InOrderConfig
from ..core.ooo import OoOConfig
from ..mem.hierarchy import HierarchyConfig
from ..mem.prefetch import PrefetcherConfig

__all__ = ["BranchPredictorConfig", "ConfigValidationError", "SoCConfig",
           "config_digest", "config_identity", "config_tree"]


class ConfigValidationError(ValueError):
    """Every cross-field violation of a config, collected into one error.

    ``problems`` lists all violations; the message shows them all, so a
    misconfigured sweep is fixed in one pass instead of one field per
    traceback.  Subclasses :class:`ValueError` for compatibility with
    callers that catch the old fail-first errors.
    """

    def __init__(self, name: str, problems: list[str]) -> None:
        self.name = name
        self.problems = list(problems)
        lines = "; ".join(self.problems)
        super().__init__(
            f"{name}: {len(self.problems)} invalid field(s): {lines}")


@dataclass(frozen=True)
class BranchPredictorConfig:
    """Front-end predictor selection and sizing."""

    kind: str = "rocket"      #: "rocket" (BHT+BTB+RAS) | "boom" (TAGE-L) | "gshare"
    bht_entries: int = 512
    btb_entries: int = 32
    ras_depth: int = 6
    tage_tables: int = 6
    tage_table_bits: int = 10

    def __post_init__(self) -> None:
        if self.kind not in ("rocket", "boom", "gshare"):
            raise ValueError(f"unknown predictor kind {self.kind!r}")


@dataclass(frozen=True)
class SoCConfig:
    """Complete description of a simulated system or a silicon reference."""

    name: str
    core_type: str                      #: "inorder" | "ooo"
    ncores: int = 4
    core_ghz: float = 1.6
    inorder: InOrderConfig | None = None
    ooo: OoOConfig | None = None
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    branch: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)
    #: silicon models carry a hardware prefetcher; FireSim tiles do not
    prefetcher: PrefetcherConfig | None = None
    #: True for the reference-hardware stand-ins (Banana Pi / MILK-V)
    is_silicon: bool = False
    #: FireSim host simulation rate in MHz (None for silicon)
    host_mhz: float | None = None

    def __post_init__(self) -> None:
        problems = self.validation_problems()
        if problems:
            raise ConfigValidationError(self.name, problems)

    def validation_problems(self) -> list[str]:
        """All cross-field violations (empty list = valid)."""
        problems: list[str] = []
        if self.core_type not in ("inorder", "ooo"):
            problems.append(
                f"core_type must be 'inorder' or 'ooo', got {self.core_type!r}")
        if self.core_type == "inorder" and self.inorder is None:
            problems.append("inorder core requires an InOrderConfig")
        if self.core_type == "ooo" and self.ooo is None:
            problems.append("ooo core requires an OoOConfig")
        if self.ncores < 1:
            problems.append(f"ncores must be >= 1, got {self.ncores}")
        if self.core_ghz <= 0:
            problems.append(f"core_ghz must be positive, got {self.core_ghz}")
        if self.hierarchy.core_ghz != self.core_ghz:
            problems.append(
                f"hierarchy.core_ghz ({self.hierarchy.core_ghz}) "
                f"must match core_ghz ({self.core_ghz})")
        if self.is_silicon and self.host_mhz is not None:
            problems.append(
                f"silicon reference carries a FireSim host rate "
                f"(host_mhz={self.host_mhz})")
        if self.host_mhz is not None and self.host_mhz <= 0:
            problems.append(
                f"host_mhz must be positive when set, got {self.host_mhz}")
        return problems

    def with_(self, **changes) -> "SoCConfig":
        """Return a modified copy (ablation helper)."""
        return dataclasses.replace(self, **changes)

    def seconds(self, cycles: int) -> float:
        """Convert target cycles to target seconds at this SoC's clock."""
        return cycles / (self.core_ghz * 1e9)

    def summary(self) -> dict[str, str]:
        """Human-readable one-line spec per Table 4's columns."""
        h = self.hierarchy
        row: dict[str, str] = {
            "Model": self.name,
            "Clock": f"{self.core_ghz} GHz",
            "L1D/I": f"Sets:{h.l1d.sets}, Ways:{h.l1d.ways}",
            "L2 Banks": str(h.l2.banks),
            "System bus": f"{h.bus.width_bits}-bit",
        }
        if self.core_type == "inorder":
            assert self.inorder is not None
            row["Front End"] = (
                f"Fetch:{self.inorder.fetch_width}, Decode:{self.inorder.issue_width}"
            )
            row["RoB"] = "N/A"
            row["LSQ"] = "N/A"
        else:
            assert self.ooo is not None
            row["Front End"] = (
                f"Fetch:{self.ooo.fetch_width}, Decode:{self.ooo.decode_width}"
            )
            row["RoB"] = f"RoB:{self.ooo.rob_size}"
            row["LSQ"] = f"Load:{self.ooo.ldq}, Store:{self.ooo.stq}"
        return row


# -- config identity ----------------------------------------------------------

#: id(cfg) -> (cfg, tree, digest); the strong config reference pins the id.
#: Keyed by object, not by value: ``core_ghz=2`` and ``core_ghz=2.0`` compare
#: and hash equal but serialise (and so digest) differently.  Threads share
#: it (a background FarmServer and its host): every operation on it is one
#: atomic call, ``popitem`` included.
_identities: OrderedDict[int, tuple[Any, dict[str, Any], str]] = OrderedDict()
_IDENTITY_MAX = 128


def config_identity(cfg) -> tuple[dict[str, Any], str]:
    """``(tree, digest)`` of a (frozen dataclass) config, derived once.

    The one derivation every identity in the package hangs off: *tree*
    is ``dataclasses.asdict(cfg)`` — what :meth:`repro.farm.Job.describe`
    and so the result-cache key are made of — and *digest* the sha-256
    of its canonical JSON.  Both are memoized per live
    config object (bounded); the tree is the memo's own, so read it,
    serialise it, but hand callers :func:`config_tree`'s copy.  A config
    that does not hash (a hand-built one holding a list, say) could
    change under the memo and is derived afresh on every call.
    """
    key = id(cfg)
    hit = _identities.get(key)
    if hit is not None and hit[0] is cfg:
        return hit[1], hit[2]
    tree = dataclasses.asdict(cfg)
    blob = json.dumps(tree, sort_keys=True, default=str)
    digest = hashlib.sha256(blob.encode()).hexdigest()
    try:
        hash(cfg)
    except TypeError:
        return tree, digest
    _identities[key] = (cfg, tree, digest)
    while len(_identities) > _IDENTITY_MAX:
        _identities.popitem(last=False)
    return tree, digest


def _copy_tree(node):
    kind = type(node)
    if kind is dict:
        return {k: _copy_tree(v) for k, v in node.items()}
    if kind is list or kind is tuple:
        return kind(_copy_tree(v) for v in node)
    return node


def config_tree(cfg) -> dict[str, Any]:
    """A fresh copy of the config's canonical tree (the caller's to keep)."""
    return _copy_tree(config_identity(cfg)[0])


def config_digest(cfg) -> str:
    """sha-256 of the config's canonical tree.

    The config half of the result-memo key (``repro.accel.memo``) and the
    fingerprint a checkpoint is stamped and verified with
    (``repro.reliability.checkpoint.config_fingerprint`` is this function).
    """
    return config_identity(cfg)[1]
