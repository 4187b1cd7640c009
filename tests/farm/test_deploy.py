"""Deploy managers: slot accounting, determinism, backend bit-identity."""

import json

import pytest

from repro.farm import Job, RunFarm
from repro.farm.deploy import (
    DeployManager,
    ExternallyProvisionedDeployManager,
    HostSpec,
    LocalDeployManager,
    parse_deploy_spec,
    resolve_deploy,
)
from repro.soc import ROCKET1, ROCKET2


# -------------------------------------------------------------- inventory

def test_host_spec_validates():
    with pytest.raises(ValueError):
        HostSpec("")
    with pytest.raises(ValueError):
        HostSpec("a", 0)
    with pytest.raises(ValueError):
        DeployManager([])
    with pytest.raises(ValueError):
        DeployManager([HostSpec("a"), HostSpec("a")])


def test_local_pool_slot_accounting():
    dep = LocalDeployManager(2)
    assert (dep.total_slots, dep.busy_slots) == (2, 0)
    assert dep.acquire() == "local"
    assert dep.acquire() == "local"
    assert dep.acquire() is None          # saturated
    assert dep.busy_slots == 2
    dep.release("local")
    assert dep.acquire() == "local"
    with pytest.raises(ValueError):
        dep.release("nope")


def test_release_of_idle_host_raises():
    dep = LocalDeployManager(1)
    with pytest.raises(ValueError):
        dep.release("local")


def test_external_fleet_spreads_by_occupancy_fraction():
    dep = ExternallyProvisionedDeployManager([("a", 2), ("b", 4)])
    # least-loaded fraction wins; declaration order breaks ties
    got = [dep.acquire() for _ in range(6)]
    assert got == ["a", "b", "b", "a", "b", "b"]
    assert dep.acquire() is None
    dep.release("b")
    assert dep.acquire() == "b"


def test_acquire_sequence_is_deterministic():
    def seq():
        dep = ExternallyProvisionedDeployManager([("x", 3), ("y", 1)])
        out = [dep.acquire() for _ in range(4)]
        dep.release("x")
        out.append(dep.acquire())
        return out

    assert seq() == seq()


def test_describe_inventory():
    dep = ExternallyProvisionedDeployManager([("a", 2), ("b", 1)])
    dep.acquire()
    doc = dep.describe()
    assert doc["kind"] == "externally-provisioned"
    assert doc["total_slots"] == 3
    assert doc["hosts"] == [
        {"name": "a", "slots": 2, "busy": 1, "state": "healthy",
         "consecutive_failures": 0, "failures": 0, "successes": 0,
         "quarantines": 0},
        {"name": "b", "slots": 1, "busy": 0, "state": "healthy",
         "consecutive_failures": 0, "failures": 0, "successes": 0,
         "quarantines": 0},
    ]
    json.dumps(doc)  # manifest-able


# ------------------------------------------------------------- host health

def _fleet(**kw):
    return ExternallyProvisionedDeployManager([("a", 1), ("b", 1)], **kw)


def _quarantined(dep):
    return [h["name"] for h in dep.describe()["hosts"]
            if h["state"] == "quarantined"]


def test_breaker_walks_healthy_suspect_quarantined():
    dep = _fleet(suspect_after=2, quarantine_after=3)
    dep.report_failure("a")
    assert dep.health("a").state == "healthy"
    dep.report_failure("a")
    assert dep.health("a").state == "suspect"
    dep.report_failure("a")
    assert dep.health("a").state == "quarantined"
    assert _quarantined(dep) == ["a"]
    assert dep.health("a").quarantines == 1


def test_job_intrinsic_failures_never_count_against_host():
    dep = _fleet(suspect_after=1, quarantine_after=1)
    for _ in range(5):
        dep.report_failure("a", job_intrinsic=True)
    hh = dep.health("a")
    assert (hh.state, hh.failures, hh.consecutive_failures) == ("healthy", 0, 0)


def test_success_closes_the_breaker():
    dep = _fleet(suspect_after=1, quarantine_after=2)
    dep.report_failure("a")
    assert dep.health("a").state == "suspect"
    dep.report_success("a")
    hh = dep.health("a")
    assert (hh.state, hh.consecutive_failures) == ("healthy", 0)
    assert hh.failures == 1          # lifetime count survives


def test_suspect_host_is_last_resort():
    dep = _fleet(suspect_after=1, quarantine_after=2)
    dep.report_failure("b")
    assert dep.health("b").state == "suspect"
    # healthy a wins even though b comes later in a least-loaded tie
    assert dep.acquire() == "a"
    # ...but a suspect host still beats refusing work
    assert dep.acquire() == "b"


def test_quarantined_host_excluded_until_probe_due():
    dep = _fleet(suspect_after=1, quarantine_after=1, probe_interval=2)
    assert dep.acquire() == "a"                      # tick 1
    dep.report_failure("a")                          # quarantined, due tick 3
    dep.release("a")
    assert dep.acquire() == "b"                      # tick 2: a is skipped
    # tick 3 reaches probe_due: a is offered as a half-open probe
    assert dep.acquire() == "a"
    assert dep.health("a").probing
    dep.report_success("a")
    dep.release("a")
    assert dep.health("a").state == "healthy"
    assert not dep.health("a").probing


def test_failed_probe_backs_off_exponentially():
    dep = _fleet(suspect_after=1, quarantine_after=1, probe_interval=2)
    assert dep.acquire() == "a"                      # tick 1
    dep.report_failure("a")                          # probe_due = 3
    dep.release("a")
    assert dep.acquire() == "b"                      # tick 2
    assert dep.acquire() == "a"                      # tick 3: probe
    dep.report_failure("a")                          # failed probe
    dep.release("a")
    hh = dep.health("a")
    assert hh.state == "quarantined"
    assert hh.quarantines == 2
    assert hh.probe_due == 3 + 2 * 2                 # interval * backoff(2)
    assert dep.acquire() is None                     # tick 4: b busy, a shut
    for _ in range(3):                               # ticks 5..7
        got = dep.acquire()
        if got is not None:
            break
    assert got == "a"                                # unlocked at tick 7


def test_all_hosts_quarantined_fails_open():
    dep = LocalDeployManager(2, suspect_after=1, quarantine_after=1,
                             probe_interval=100)
    dep.report_failure("local")
    assert _quarantined(dep) == ["local"]
    # probe window is nowhere near due, but refusing would deadlock
    assert dep.acquire() == "local"
    assert dep.health("local").probing
    # one in-flight probe per host: the second slot stays shut
    assert dep.acquire() is None


# --------------------------------------------- acquire/release invariants

def test_acquire_release_property_invariants():
    """Random-but-seeded interleavings keep the slot ledger consistent."""
    import random

    fleet = [("a", 2), ("b", 3), ("c", 1)]
    for seed in range(6):
        rng = random.Random(seed)
        dep = ExternallyProvisionedDeployManager(fleet)
        held: list[str] = []
        trace: list[tuple[str, str | None]] = []
        for _ in range(120):
            if held and rng.random() < 0.4:
                h = held.pop(rng.randrange(len(held)))
                dep.release(h)
                trace.append(("rel", h))
            else:
                h = dep.acquire()
                trace.append(("acq", h))
                if h is None:
                    assert dep.busy_slots == dep.total_slots  # only when full
                else:
                    held.append(h)
            assert dep.busy_slots == len(held)
            per_host = {d["name"]: d for d in dep.describe()["hosts"]}
            for name, slots in fleet:
                assert 0 <= per_host[name]["busy"] <= slots
        # double-release always raises, mid-sequence state notwithstanding
        dep2 = ExternallyProvisionedDeployManager(fleet)
        with pytest.raises(ValueError):
            dep2.release("a")
        # determinism: replaying the op sequence reproduces every choice
        for op, h in trace:
            if op == "acq":
                assert dep2.acquire() == h
            else:
                assert h is not None
                dep2.release(h)


# ------------------------------------------------------------ spec parsing

@pytest.mark.parametrize("spec,kind,slots", [
    ("local", "local", 1),
    ("local:8", "local", 8),
    ("hosts:a=2,b=4", "externally-provisioned", 6),
    ("hosts:a, b", "externally-provisioned", 2),
])
def test_parse_deploy_spec(spec, kind, slots):
    dep = parse_deploy_spec(spec)
    assert dep.kind == kind
    assert dep.total_slots == slots


@pytest.mark.parametrize("spec", ["", "local:x", "hosts:", "hosts:a=z", "gcp",
                                  "local:0", "local:-2"])
def test_parse_deploy_spec_rejects_garbage(spec):
    with pytest.raises(ValueError):
        parse_deploy_spec(spec)


def test_local_worker_count_is_validated_not_clamped():
    with pytest.raises(ValueError, match=">= 1 worker"):
        LocalDeployManager(0)
    with pytest.raises(ValueError, match="got -3"):
        LocalDeployManager(-3)
    with pytest.raises(ValueError, match=">= 1 worker"):
        parse_deploy_spec("local:0")


def test_resolve_deploy_precedence(monkeypatch):
    dep = LocalDeployManager(3)
    assert resolve_deploy(dep) is dep
    assert resolve_deploy("hosts:a=2").kind == "externally-provisioned"
    monkeypatch.setenv("REPRO_DEPLOY", "hosts:h1=2,h2=2")
    env_dep = resolve_deploy()
    assert env_dep.kind == "externally-provisioned"
    assert env_dep.total_slots == 4
    monkeypatch.delenv("REPRO_DEPLOY")
    assert resolve_deploy(workers=5).total_slots == 5


# ----------------------------------------------------- backend bit-identity

def _jobs():
    return [Job.kernel(cfg, k, scale=0.05)
            for cfg in (ROCKET1, ROCKET2) for k in ("EI", "Cca", "DP1f")]


def canon(results):
    return json.dumps([r.payload for r in results], sort_keys=True)


def test_backends_bit_identical_and_host_is_provenance_only():
    jobs = _jobs()
    serial = RunFarm(workers=1).run(jobs)
    local = RunFarm(deploy=LocalDeployManager(3)).run(jobs)
    fleet_dep = ExternallyProvisionedDeployManager([("fpga-a", 2),
                                                    ("fpga-b", 1)])
    fleet = RunFarm(deploy=fleet_dep).run(jobs)

    # payloads carry no trace of where they ran
    assert canon(local) == canon(serial)
    assert canon(fleet) == canon(serial)

    # ...but results do, as provenance
    assert all(r.host == "local" for r in local)
    hosts = {r.host for r in fleet}
    assert hosts <= {"fpga-a", "fpga-b"}
    assert fleet_dep.busy_slots == 0       # every slot handed back


def test_farm_manifest_records_deploy_inventory(tmp_path):
    farm = RunFarm(deploy="hosts:a=2,b=1", manifest_path=tmp_path / "m.json")
    farm.run(_jobs()[:2])
    doc = json.loads((tmp_path / "m.json").read_text())
    assert doc["deploy"]["kind"] == "externally-provisioned"
    assert [h["name"] for h in doc["deploy"]["hosts"]] == ["a", "b"]
    assert all(j["host"] in {"a", "b"} for j in doc["jobs"])
