"""Workload inputs, made from the seed, with their expected answers.

run.py calls make_inputs(workload, seed) once per run; every pass of the
run gets the same inputs.  The three verify workloads are exhaustive
scans whose inputs do not depend on the seed.  quad-cli draws its
fields, elements, ideals and sequences from the seed and computes the
answers it can check independently with reference.py, never with
zerosum.
"""

from __future__ import annotations

import random

import reference

WORKLOADS = ("battery-11", "length-n-12-sharded", "scans-wide", "quad-cli")
SEEDED = {"battery-11": False, "length-n-12-sharded": False, "scans-wide": False, "quad-cli": True}

# seeds 1..10 tune and prove the benchmark; this one is kept back for
# checking a claimed gain on inputs not used while it was written
HOLDOUT_SEED = 9001

# the field of the README examples, where is_irreducible is run
IRREDUCIBLE_D = 26
NORM_BANDS = ((1_000_000, 3_000_000), (3_000_000, 5_000_000), (5_000_000, 7_000_000), (7_000_000, 9_000_000))

# class_group time grows like h^2, and h of a random d in [50000, 100000]
# ranges over 40..400; these pools hold squarefree d = 3 mod 4 with
# h in [190, 210], so the seed changes which field is used but not how
# much work it is.  Two d are drawn from each |D| band.
CLASS_GROUP_POOLS = {
    (50_000, 75_000): (
        50351, 50495, 51167, 51711, 52463, 53535, 54623, 56839,
        57151, 58463, 58839, 60215, 61223, 62423, 69647, 72511,
    ),
    (75_000, 100_000): (
        75503, 76487, 76623, 78863, 79367, 83895, 85551, 86927,
        87783, 89655, 92303, 94551, 95479, 96231, 97311, 99447,
    ),
}

# (d, h) with a cyclic class group of order h in [20, 60] and |D| <= 8000
SHORT_PRODUCT_FIELDS = (
    (194, 20), (269, 22), (542, 24), (314, 26), (641, 28), (461, 30), (446, 32), (614, 34),
    (626, 36), (1199, 38), (734, 40), (794, 42), (866, 44), (941, 46), (1751, 48), (1109, 50),
)

# squarefree d = 3 mod 4 in [90000, 100000) with h in [190, 210];
# golden.json holds the CLI output for each, so the seeded
# quad-class-group call has a golden answer
CLI_CLASS_GROUP_DS = (
    90303, 91247, 91487, 91591, 92031, 92599, 92823, 93855,
    95007, 95479, 96167, 96391, 96423, 96663, 97223, 98647,
)

README_MZ = ["mz", "--group", "Z6", "--seq", "2,2,3,1,1,1"]
README_DEMO = ["quad-demo51", "-d", "26", "--ideals", "5,2;5,2;5,2;2,0;3,1;3,1"]

# closed-loop CLI part of each workload: (label, argv) commands, rounds
CLI_PARTS = {
    "battery-11": ([("verify-all-7", ["verify", "all", "--n-max", "7", "--shards", "1", "--json"])], 3),
    "length-n-12-sharded": (
        [("verify-support-bound-9", ["verify", "support-bound", "--n", "9", "--shards", "2", "--json"])],
        3,
    ),
    "scans-wide": (
        [
            ("verify-egz-6", ["verify", "egz", "--n", "6", "--shards", "1", "--json"]),
            ("verify-sumset-growth-Z2xZ6", ["verify", "sumset-growth", "--group", "Z2xZ6", "--shards", "1", "--json"]),
            ("verify-davenport-table-12", ["verify", "davenport-table", "--n-max", "12", "--shards", "1", "--json"]),
        ],
        1,
    ),
}


def _element_in_band(rng: random.Random, d: int, lo: int, hi: int) -> tuple[int, int]:
    """Random x + y*w with norm x^2 + d*y^2 in [lo, hi); needs w = sqrt(-d),
    that is d = 1 or 2 mod 4."""
    while True:
        y = rng.randrange(0, int((hi / d) ** 0.5) + 1)
        rest_lo, rest_hi = max(0, lo - d * y * y), hi - d * y * y
        if rest_hi <= 0:
            continue
        x_lo = int(rest_lo**0.5)
        x_hi = int((rest_hi - 1) ** 0.5)
        if x_hi < max(x_lo, 1):
            continue
        alpha = (rng.randrange(max(x_lo, 1), x_hi + 1), y)
        if lo <= reference.quad_norm(d, alpha) < hi:
            return alpha


def _band_name(prefix: str, lo: int, hi: int, unit: int, suffix: str) -> str:
    return f"{prefix}{lo // unit}{suffix}-{hi // unit}{suffix}"


def _sequence(rng: random.Random, factors: tuple[int, ...], length: int) -> dict:
    entries = [[rng.randrange(n) for n in factors] for _ in range(length)]
    lengths = reference.Grid(factors).min_lengths([tuple(e) for e in entries])
    return {"factors": list(factors), "entries": entries, "lengths": lengths}


def _quad_cli_inputs(rng: random.Random) -> dict:
    class_groups = []
    for (lo, hi), pool in CLASS_GROUP_POOLS.items():
        for d in rng.sample(pool, 2):
            class_groups.append(
                {"d": d, "band": _band_name("D", lo, hi, 1000, "k"), "h": reference.class_number(d)}
            )

    d = IRREDUCIBLE_D
    irreducible = []
    for lo, hi in NORM_BANDS:
        band = _band_name("N", lo, hi, 1_000_000, "e6")
        while True:
            alpha = _element_in_band(rng, d, lo, hi)
            if reference.is_prime(reference.quad_norm(d, alpha)):
                break
        # prime norm: any factor has norm 1 or N, so alpha is irreducible
        irreducible.append({"alpha": list(alpha), "band": band, "expected": True})
        beta = _element_in_band(rng, d, 1_000, 3_000)
        n_beta = reference.quad_norm(d, beta)
        gamma = _element_in_band(rng, d, -(-lo // n_beta), -(-hi // n_beta))
        product = reference.quad_mul(d, beta, gamma)
        # a product of two non-units factors by construction
        irreducible.append({"alpha": list(product), "band": band, "expected": False})

    short_products = []
    for d, h in rng.sample(SHORT_PRODUCT_FIELDS, 2):
        primes = reference.split_primes(d, h)
        ideals = [(p, rng.choice(roots)) for p, roots in primes]
        short_products.append({"d": d, "h": h, "ideals": ";".join(f"{p},{b}" for p, b in ideals)})

    cli_d = rng.choice(CLI_CLASS_GROUP_DS)
    return {
        "class_groups": class_groups,
        "irreducible_d": IRREDUCIBLE_D,
        "irreducible": irreducible,
        "short_products": short_products,
        "mz_cyclic": _sequence(rng, (10_000,), 100),
        "mz_rank2": _sequence(rng, (60, 60), 40),
        "element_add_pairs": [
            [[rng.randrange(60), rng.randrange(60)], [rng.randrange(60), rng.randrange(60)]]
            for _ in range(2_000)
        ],
        "cli": (
            [
                ("mz", README_MZ),
                ("quad-demo51", README_DEMO),
                ("quad-class-group", ["quad-class-group", "-d", str(cli_d)]),
                ("verify-all-8", ["verify", "all", "--n-max", "8", "--json"]),
            ],
            5,
        ),
    }


def make_inputs(workload: str, seed: int) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "quad-cli":
        return _quad_cli_inputs(random.Random(f"zsbench:{workload}:{seed}"))
    return {"cli": CLI_PARTS[workload]}
