"""Config and job identity must not move by accident.

The values below were first computed before the memoized
``repro.soc.config.config_identity`` replaced the four
``dataclasses.asdict(<config>)`` sites, and moved twice since.  When
``CacheConfig.replacement``/``.write_back``, ``DRAMConfig.open_page``
and ``HierarchyConfig.coherence`` were deleted, every config tree lost
those four keys: older result-cache and store entries then miss and
older checkpoints are refused by their config fingerprint
(``tests/reliability/test_identity_move.py``).  When the
``SoCConfig.accel`` knob was deleted, every config tree lost ``accel``:
the cache keys moved (each new key was first computed from the old
``Job.describe()`` tree with ``accel`` popped, the sweep's sub-configs
included), while the config digests, which never hashed the knob, did
not, so memo entries and checkpoints still match.  Otherwise,
caches, stores and checkpoints keep hitting and restoring only while
these keys and digests stay what they are.
"""

import dataclasses

from repro.accel import memo
from repro.farm import Job, cache_key
from repro.reliability import checkpoint
from repro.soc import ALL_CONFIGS, BANANA_PI_SIM, LARGE_BOOM, ROCKET1
from repro.soc import config as soc_config
from repro.soc.config import config_digest, config_identity, config_tree

GOLDEN_KEYS = {
    "kernel": "5f0bfaa4432c0859212315b7dc03173b7689ad0d2caf5bc04510be7609a71590",
    "kernel_plain": "16cb236eb3456cd969a5ef6c49eeed02ea4a203f20a9263a0772cd92ea0ed007",
    "sweep": "86bae8372e15161f09fad6d3d70ffad85f7161ccb398d90a5d1fe0181e9908e7",
    "npb": "014ab0a7e6dcb4be4e7e17c9b64ecd9a92cbe4eac4753cf213ba80c7354e2216",
    "checkprog": "e4d934803a1e09fdbd15309e89dacbc9df88db5e0a895cf64cc881c85e6be3fc",
}

GOLDEN_DIGESTS = {
    "BananaPi-K1": "053727cb109cc05187b2aa32e0104127a69bb1fc20385736408c8c77fe786b31",
    "BananaPiSim": "1798e5964e97432e512205b27485a1c73cab3ceeb5e1bb78941f4f08e369e575",
    "FastBananaPiSim": "bef70a8c3febd5cbff3108ce364293d4e0794a0964222b432b491789b6da7f30",
    "LargeBOOM": "48452ba56080aa0c6edb40ded5d8ebe8803750b38b7cecea01a58305a21dc176",
    "MILKV-SG2042": "db5cec886ad93618a6576cf23a8da39e4c482c6099b5c8b039e524157c2e5dcf",
    "MILKVSim": "c280089b40668f3f31c85c23194cacdf9c7a2948a914590ed3e2a8870ffc002b",
    "MediumBOOM": "8f13ee9b26b9e57a07aab672d17ff453d95c3e592b12e8a6547bfff610e90827",
    "Rocket1": "2f75a6c95fc9e08aa48b5857b79aad7da32bc39ad513485c9fb94593288e7b02",
    "Rocket2": "bdd6faa938e4b80c29760eccd42457342fcca6c13905a4f98c767fb4cb071cf6",
    "SmallBOOM": "67697831c290927ca7f95c8634393fb866edd3c734432593e0dbb606b029fd6c",
}


def golden_jobs():
    return {
        "kernel": Job.kernel(BANANA_PI_SIM, "MM", scale=0.25, seed=3,
                             quantum=512, chunk=128),
        "kernel_plain": Job.kernel(ROCKET1, "EI", scale=0.05),
        "sweep": Job.sweep(list(ALL_CONFIGS.values()), "EI", scale=0.1,
                           seed=1),
        "npb": Job.npb(ROCKET1, "cg", ranks=4, npb_class="W"),
        "checkprog": Job.checkprog(LARGE_BOOM, "p0", "addi a0, zero, 1\n",
                                   fuel=1000),
    }


def ghz(value):
    """ROCKET1 clocked at *value*, which may be the int 2 or the float 2.0."""
    return ROCKET1.with_(
        core_ghz=value,
        hierarchy=dataclasses.replace(ROCKET1.hierarchy, core_ghz=value))


def test_cache_keys_are_the_parents():
    for name, job in golden_jobs().items():
        assert cache_key(job) == GOLDEN_KEYS[name], name
        assert cache_key(job) == GOLDEN_KEYS[name], f"{name} (memoized)"


def test_config_digests_are_the_parents_and_one_function():
    assert memo.config_digest is checkpoint.config_fingerprint is config_digest
    assert set(ALL_CONFIGS) == set(GOLDEN_DIGESTS)
    for name, cfg in ALL_CONFIGS.items():
        assert config_digest(cfg) == GOLDEN_DIGESTS[name], name
        # an equal config that never saw the memo (what a worker unpickles)
        assert config_digest(dataclasses.replace(cfg)) == GOLDEN_DIGESTS[name]


def test_tree_is_asdict():
    for cfg in ALL_CONFIGS.values():
        assert config_tree(cfg) == dataclasses.asdict(cfg)


def test_equal_configs_of_different_types_keep_their_own_identity():
    """``2 == 2.0`` and ``0 == False`` — the configs compare and hash
    equal — but they serialise differently, so they always had distinct
    digests and keys; a memo keyed by value would merge them."""
    as_int, as_float = ghz(2), ghz(2.0)
    assert as_int == as_float and hash(as_int) == hash(as_float)
    for _ in range(2):      # derived, then memoized, in either order
        assert config_digest(as_float) == (
            "e9ae9854baef64ce9000d4478220703759ca9923a2c2c4c770df2d7f3f134a62")
        assert config_digest(as_int) == (
            "7d38b6e31b99fbe4785d889a2785275587a4ef37b6c5bd938e738a1170e045de")
        assert cache_key(Job.kernel(as_float, "EI", scale=0.05)) == (
            "c0bf8aaffbbcb9abd8fe3b6b957b92c5dc98befaf0624793a60a6006301631d8")
        assert cache_key(Job.kernel(as_int, "EI", scale=0.05)) == (
            "c33201a6ffd52fca6e735422b3f7121cd8540cac1fd8c60e9eb7ce3d4659531e")
    flag_int, flag_bool = (ROCKET1.with_(is_silicon=0),
                           ROCKET1.with_(is_silicon=False))
    assert flag_int == flag_bool
    assert config_digest(flag_bool) == GOLDEN_DIGESTS["Rocket1"]
    assert config_digest(flag_int) == (
        "f098b2afa38891085cd524f9f7ba0b4eb54c1e99d1af32178e65745037501605")


def test_mutating_a_described_tree_does_not_move_the_key():
    for name, job in golden_jobs().items():
        tree = job.describe()
        tree["config"]["core_ghz"] = 99.0
        tree["config"]["hierarchy"]["l1d"]["sets"] = 1
        for sub in tree["params"].get("configs", ()):
            sub.clear()
        assert cache_key(job) == GOLDEN_KEYS[name], name
        assert job.describe()["config"] == dataclasses.asdict(job.config)


def test_memo_is_bounded_over_many_transient_configs():
    for i in range(10_000):
        config_digest(ROCKET1.with_(ncores=1 + i))
    assert len(soc_config._identities) <= soc_config._IDENTITY_MAX
    assert config_digest(ROCKET1) == GOLDEN_DIGESTS["Rocket1"]


def test_unhashable_config_is_derived_uncached():
    """A hand-built config holding a list could change under a memo."""
    @dataclasses.dataclass(frozen=True)
    class Handmade:
        name: str
        knobs: list
        mode: str = "fast"

    cfg = Handmade("h", [1, 2])
    tree, digest = config_identity(cfg)
    assert tree == {"name": "h", "knobs": [1, 2], "mode": "fast"}
    assert id(cfg) not in soc_config._identities
    cfg.knobs.append(3)
    assert config_identity(cfg)[0]["knobs"] == [1, 2, 3]
    assert config_identity(cfg)[1] != digest


def test_payloads_carry_no_host_counters():
    """Neither a checkprog nor a kernel payload keeps an ``accel``
    record, top-level or per tile: they are host bookkeeping."""
    from repro.farm import execute_job

    for job in (Job.checkprog(ROCKET1, "p0", "addi a0, zero, 1\n",
                              fuel=1000),
                Job.kernel(ROCKET1, "EI", scale=0.05)):
        telemetry = execute_job(job)["telemetry"]
        assert "accel" not in telemetry
        assert all("accel" not in tile for tile in telemetry["tiles"])
