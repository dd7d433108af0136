"""Write ``expected.json``: the answers ``run.py`` checks ``gate`` and
``generic`` against.

    python3 perfbench/make_expected.py

Run it only at a commit whose answers are known good.  It records:

* ``gate_projection`` -- the seed-independent part of the gate report,
  checked to be equal at two seeds (and hash seeds) before it is written;
* ``generic`` -- every answer of the ``generic`` workload, equal across two
  seeds, with the generic dimensions of each parametrized family
  cross-checked once against the Fraction reference at sampled points
  (``crosscheck`` lists what was compared).
"""

from __future__ import annotations

import json
import random
import sys

import reference
import run


def cross_check(answers: dict) -> list[dict]:
    """Generic dims must equal the reference's at admissible points."""
    rng = random.Random(0)
    done = []
    for e in run.catalog_entries():
        if not e["params"]:
            continue
        name = e["name"]
        for at in run.sample_points(e, rng, 3):
            ref = reference.profile(reference.table_at(e, at))
            pairs = [("check_identities", ref["identities"]),
                     ("derived_power_dims", ref["derived_dims"]),
                     ("derivation_dim", ref["der_dim"])]
            got = {k: answers[f"{name}|{k}"] for k, _ in pairs}
            ann = len(answers[f"{name}|annihilator_basis"])
            coh = answers[f"{name}|cocycle_space"]["dims"]
            if any(got[k] != v for k, v in pairs) or ann != ref["ann_dim"] \
                    or coh != ref["cohomology_dims"]:
                raise SystemExit(f"generic answers of {name} differ from the "
                                 f"reference at {at}: {got}, {ann}, {coh}, {ref}")
            done.append({"family": name,
                         "at": {p: str(v) for p, v in at.items()}})
    return done


def main() -> int:
    projections = []
    for seed in (0, 1):
        spec = run.make_inputs("gate", seed, "full")
        rep = run.repetition(spec, False, run.child_env(seed))
        report = json.loads(rep["report"])
        if not report["passed"]:
            raise SystemExit(f"gate fails at seed {seed}")
        if seed == 0 and rep["report_sha256"] != run.SEED_DIGEST:
            raise SystemExit("gate report differs from the seed digest")
        projections.append(run.gate_projection(report))
    if projections[0] != projections[1]:
        raise SystemExit("gate projection depends on the seed")

    generic = []
    for seed in (0, 1):
        spec = run.make_inputs("generic", seed, "full")
        rep = run.repetition(spec, False, run.child_env(seed))
        generic.append({f"{label}|{kind}": ans
                        for label, kind, ans in rep["answers"]})
    if generic[0] != generic[1]:
        raise SystemExit("generic answers depend on the seed")
    bad = [k for k, v in generic[0].items()
           if isinstance(v, dict) and "error" in v]
    if bad:
        raise SystemExit(f"generic operations raised: {bad}")

    out = {"gate_projection": projections[0],
           "generic": generic[0],
           "crosscheck": cross_check(generic[0])}
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.EXPECTED}: {len(out['generic'])} generic answers, "
          f"{len(out['crosscheck'])} reference points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
