"""FairScheduler unit tests: priority order, quotas, cross-tenant fairness."""

import pytest

from repro.farm import Job
from repro.serve import FairScheduler, JobRecord, TERMINAL_STATES
from repro.soc import ROCKET1

_SEQ = 0


def rec(tenant="default", priority=0, seq=None, name="EI"):
    global _SEQ
    if seq is None:
        seq = _SEQ
        _SEQ += 1
    return JobRecord(id=f"j{seq:04d}", tenant=tenant, priority=priority,
                     job=Job.kernel(ROCKET1, name, scale=0.05), seq=seq)


def drain(sched):
    """Pick until empty, finishing each job immediately (serial farm)."""
    order = []
    while True:
        r = sched.pick()
        if r is None:
            break
        order.append(r)
        sched.job_finished(r.tenant)
    return order


# -------------------------------------------------------------- priorities

def test_higher_priority_dispatches_first():
    s = FairScheduler()
    lo, hi, mid = rec(priority=0), rec(priority=5), rec(priority=2)
    for r in (lo, hi, mid):
        s.submit(r)
    assert [r.priority for r in drain(s)] == [5, 2, 0]


def test_equal_priority_is_fifo():
    s = FairScheduler()
    first, second, third = rec(), rec(), rec()
    for r in (third, first, second):  # submission order != seq order
        s.submit(r)
    assert [r.seq for r in drain(s)] == sorted(
        r.seq for r in (first, second, third))


def test_late_high_priority_jumps_the_backlog():
    s = FairScheduler()
    for _ in range(3):
        s.submit(rec(priority=0))
    s.submit(rec(priority=9))
    assert drain(s)[0].priority == 9


# ------------------------------------------------------------------ quotas

def test_quota_gates_dispatch_not_admission():
    s = FairScheduler(quotas={"t": 1})
    a, b = rec(tenant="t"), rec(tenant="t")
    s.submit(a)
    s.submit(b)
    assert s.queued == 2                    # both admitted
    assert s.pick() is a
    assert s.pick() is None                 # quota holds b back
    s.job_finished("t")
    assert s.pick() is b


def test_default_quota_applies_to_unnamed_tenants():
    s = FairScheduler(quotas={"vip": 2}, default_quota=1)
    assert s.quota("vip") == 2
    assert s.quota("anyone-else") == 1
    for _ in range(2):
        s.submit(rec(tenant="vip"))
        s.submit(rec(tenant="joe"))
    picked = [s.pick() for _ in range(4)]
    got = [r.tenant for r in picked if r is not None]
    assert got.count("vip") == 2 and got.count("joe") == 1


def test_unlimited_quota_by_default():
    s = FairScheduler()
    for _ in range(5):
        s.submit(rec(tenant="t"))
    assert sum(s.pick() is not None for _ in range(5)) == 5


# ---------------------------------------------------------------- fairness

def test_flood_cannot_starve_other_tenant():
    s = FairScheduler()
    flood = [rec(tenant="flood") for _ in range(10)]
    for r in flood:
        s.submit(r)
    late = rec(tenant="late")
    s.submit(late)
    first = s.pick()                 # flood got in first...
    assert first.tenant == "flood"
    second = s.pick()                # ...but late dispatches no later than
    assert second is late            # the flood's second job


def test_fairness_prefers_fewest_running_then_least_recent():
    s = FairScheduler()
    for _ in range(2):
        s.submit(rec(tenant="a"))
        s.submit(rec(tenant="b"))
    # serial drain alternates tenants (name order breaks the first tie)
    assert [r.tenant for r in drain(s)] == ["a", "b", "a", "b"]


def test_schedule_is_deterministic():
    def run():
        global _SEQ
        _SEQ = 0
        s = FairScheduler(quotas={"a": 2}, default_quota=3)
        for i in range(9):
            s.submit(rec(tenant="ab"[i % 2], priority=i % 3))
        return [(r.tenant, r.priority, r.seq) for r in drain(s)]

    assert run() == run()


# ------------------------------------------------------------- bookkeeping

def test_withdraw_and_counts():
    s = FairScheduler()
    a, b = rec(), rec()
    s.submit(a)
    s.submit(b)
    assert s.withdraw(a) is True
    assert s.withdraw(a) is False           # already gone
    assert s.queued == 1
    assert s.pick() is b
    assert s.describe()["tenants"][b.tenant]["running"] == 1
    s.job_finished(b.tenant)
    assert s.describe()["tenants"][b.tenant]["running"] == 0


def test_job_finished_without_running_job_raises():
    s = FairScheduler()
    with pytest.raises(ValueError):
        s.job_finished("ghost")


def test_describe_and_terminal_states():
    s = FairScheduler(quotas={"a": 2}, default_quota=4)
    s.submit(rec(tenant="a"))
    doc = s.describe()
    assert doc["default_quota"] == 4
    assert doc["tenants"]["a"] == {"queued": 1, "running": 0, "quota": 2}
    r = rec()
    assert not r.done
    for st in TERMINAL_STATES:
        r.state = st
        assert r.done
