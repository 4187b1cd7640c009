"""Config and job identity must not move.

Every value below was computed at the commit before the memoized
``repro.soc.config.config_identity`` replaced the four
``dataclasses.asdict(<config>)`` sites: result caches, shared stores and
checkpoints written by older code keep hitting and restoring only while
these keys and digests stay what they were.
"""

import dataclasses

from repro.accel import memo
from repro.farm import Job, cache_key
from repro.reliability import checkpoint
from repro.soc import ALL_CONFIGS, BANANA_PI_SIM, LARGE_BOOM, ROCKET1
from repro.soc import config as soc_config
from repro.soc.config import config_digest, config_identity, config_tree

GOLDEN_KEYS = {
    "kernel": "126cf6ee50510514a07eb5d55fc8b5d0142bcf058c584e7fd4fa7099b06f9967",
    "kernel_plain": "e8146ae6f3b2280f020a5680c61a20d9ce866f64464289244ef695e640f3f007",
    "sweep": "928a5a9d12af5355644b0563d2be538cc6a3958541ead44979b4ae86e5fe403a",
    "npb": "a583ad19bd3a8939bc6324720c7f43fb354f3fdd0adb95e5d8855c2cd0db26d8",
    "checkprog": "1d5bfe67a7bb5f29df82a905515f1824ecce2fde99f26fc351706763db52fcb4",
}

GOLDEN_DIGESTS = {
    "BananaPi-K1": "56a135b5a154b99431c3582c0192f5b3dc003bf0c61a73ef1d9fc1885feb76ff",
    "BananaPiSim": "ef586ff41aa7a148ee5218c8989790dcb3b12cc834a8696e9a1e65cfb623ba49",
    "FastBananaPiSim": "29a175ed0077a0562fec5de82cf33a47ae7fb31305185c696e34626a8f63b21e",
    "LargeBOOM": "ed438d3cbf241d75cc70d343e6ea101cc6b797ce41a66096b6109309d59a9cca",
    "MILKV-SG2042": "bd0eb4d9c916ca39d4e7f9a5ebc8ebeff768147947d5b4cdf94859ae55878ecc",
    "MILKVSim": "c42d63ede10e22a30f2f58c441bf109ee86a983311d0090dc496d6f91a65710b",
    "MediumBOOM": "0d79a9ed15bf3a2cefb2b1097ae4be9ff206f4bf4d2094d33cb17bacaffc6d83",
    "Rocket1": "734ff4aac87c33ac1d7501e175688c845f0f7640d7b27458c1bebf361e3cc50e",
    "Rocket2": "78dc0582ef12335a5793d59b6e32dddaf9685e5c2165b869eadc71ae17ac51eb",
    "SmallBOOM": "22f96466ab05592ca62ebfe2a60f425e9fa392fbe4f71c15f653c536bc0dd0d9",
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
            "637ef7269c5fdbb6b25d0ea689ad13faf99892d8cfef6b2935e6ef5a0ed4c73b")
        assert config_digest(as_int) == (
            "21dbf40ab5492b544cc84d9c9b188c5d926700d9586dcce8d92994de57201257")
        assert cache_key(Job.kernel(as_float, "EI", scale=0.05)) == (
            "0a6e5089fb1f8d920cc0c495fe49e593ab759dc96992d4e549d648fba67b8695")
        assert cache_key(Job.kernel(as_int, "EI", scale=0.05)) == (
            "da4bbff32f690952bb5cdf1450af4ea4b68d6fe25859f061e15ff54ba0bf74c7")
    flag_int, flag_bool = (ROCKET1.with_(is_silicon=0),
                           ROCKET1.with_(is_silicon=False))
    assert flag_int == flag_bool
    assert config_digest(flag_bool) == GOLDEN_DIGESTS["Rocket1"]
    assert config_digest(flag_int) == (
        "1b96d0769c5428f0174bb5cbad10d602ab49f9077370127e7fb68848d5444a96")


def test_mutating_a_described_tree_does_not_move_the_key():
    for name, job in golden_jobs().items():
        tree = job.describe()
        tree["config"]["core_ghz"] = 99.0
        tree["config"]["hierarchy"]["l1d"]["sets"] = 1
        tree["config"].pop("accel")
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
        accel: str = "on"

    cfg = Handmade("h", [1, 2])
    tree, digest = config_identity(cfg)
    assert tree == {"name": "h", "knobs": [1, 2], "accel": "on"}
    assert id(cfg) not in soc_config._identities
    cfg.knobs.append(3)
    assert config_identity(cfg)[0]["knobs"] == [1, 2, 3]
    assert config_identity(cfg)[1] != digest
