"""The seeded request mix of the serve_mixed workload.

The mix spans the three served facility profiles, transfer sizes from 1 MB
to 100 GB (or 0 = the profile's calibrated unit), utilizations inside and
outside each profile's calibrated range (or 0 = its operating point), and
path_hops 0-4.  With the stored profiles, `aps` is always answered
`local`, `lcls` always `stream`, and `frib` flips between the two with the
path depth and with the profile version the hot reload publishes.
"""

import random

FACILITIES = ("aps", "lcls", "frib")
HEADER = "facility,transfer_size_bytes,operating_utilization,path_hops"


def generate(seed, count):
    """Return `count` request rows (facility, size, utilization, hops)."""
    rng = random.Random(seed)
    rows = []
    for _ in range(count):
        facility = rng.choice(FACILITIES)
        size = 0 if rng.random() < 0.2 else int(10 ** rng.uniform(6.0, 11.0))
        util = 0.0 if rng.random() < 0.2 else round(rng.uniform(0.05, 1.2), 6)
        hops = rng.randrange(0, 5)
        rows.append((facility, size, util, hops))
    return rows


def write(path, rows):
    with open(path, "w", encoding="utf-8") as out:
        out.write(HEADER + "\n")
        for facility, size, util, hops in rows:
            out.write(f"{facility},{size},{util!r},{hops}\n")
