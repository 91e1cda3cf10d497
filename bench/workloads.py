"""Seeded inputs of the four benchmark workloads.

Each workload is a model file (written with gibbsfactor.models.dump_document)
plus a fixed script of CLI argument lists.  The same seed gives the same
files and the same script.  The package under test sees only these files and
argument lists; the checks in run.py read the same files back through the
oracle.

Every workload is shaped so that one layer dominates its run time:

sweep-fs4       full 4-shift onto 2 symbols, fibers of 2, transition rows
                drawn log-uniform over [0.01, 1].  The certified backward
                iteration inside the gibbs and holder sweeps dominates.
                Of DEPTH_DRAWS draws the one whose certified depth at 1e-10
                is nearest DEPTH_TARGET is kept, so every seed asks for about
                the same amount of iteration; a single draw's depth (and the
                run time) varies tenfold between seeds.
certify-narrow  full 6-shift onto 3 symbols, fibers of 2.  check and potential
                each recompute the uniform constants, whose d_const loop
                (tens of thousands of apply_normalized calls) dominates.
wide-fibers     full 80-shift onto 2 symbols, fibers of 40.  The Birkhoff
                coefficient of 40 x 40 blocks, with its k^4 temporaries, sets
                both run time and peak memory.
divergent-ng6   nongibbs6 with gamma drawn from GAMMA_RANGE.  No constants
                exist, so this covers the adaptive route, the divergence scan,
                the eigendata route and the finite-range proxies of the
                uncertified Gibbs sweep.  Cost climbs as gamma nears 1/4 or
                1/3 (by 8% already between 0.27 and 0.31), so gamma is drawn
                from GAMMA_RANGE in the middle of (1/4, 1/3).

Scripts are kept short (about a second or less at full size) so that a run
holds many samples of each command.  Smoke sizes (used by the self-test)
keep every command but shrink the models and sweep depths further.
"""

from __future__ import annotations

import json
import os

import numpy as np

from gibbsfactor import models

import oracle

NAMES = ("sweep-fs4", "certify-narrow", "wide-fibers", "divergent-ng6")

DEPTH_TARGET = 240
DEPTH_DRAWS = 128
GAMMA_RANGE = (0.27, 0.30)


def _full_shift(rng, n_src: int, n_tgt: int) -> dict:
    """Full shift on n_src symbols onto n_tgt symbols with equal fibers."""
    labels = [f"s{i}" for i in range(n_src)]
    k = n_src // n_tgt
    p = np.exp(rng.uniform(np.log(0.01), 0.0, size=(n_src, n_src)))
    p /= p.sum(axis=1, keepdims=True)
    return {
        "alphabet": labels,
        "incidence": [[1] * n_src for _ in range(n_src)],
        "transition": p.tolist(),
        "projection": {lab: str(i // k) for i, lab in enumerate(labels)},
    }


def _depth_matched_full_shift(rng, n_src: int, n_tgt: int) -> dict:
    """Of DEPTH_DRAWS draws, the one whose certified depth is nearest DEPTH_TARGET.

    A fixed number of draws keeps set-up time the same for every seed.
    """
    docs = [_full_shift(rng, n_src, n_tgt) for _ in range(DEPTH_DRAWS)]
    depths = [oracle.full_shift_depth(oracle.OracleModel(d), 1e-10) for d in docs]
    return docs[int(np.argmin([abs(d - DEPTH_TARGET) for d in depths]))]


def _point(rng, nb: int, max_pre: int, max_per: int) -> str:
    """A seeded point PRE/PERIOD over the target labels 0 .. nb-1."""
    pre = rng.integers(0, nb, size=int(rng.integers(0, max_pre + 1)))
    per = rng.integers(0, nb, size=int(rng.integers(1, max_per + 1)))
    return "".join(str(s) for s in pre) + "/" + "".join(str(s) for s in per)


def generate(workload: str, seed: int, out_dir: str, smoke: bool = False) -> dict:
    """Write the workload's model file and manifest; return the manifest.

    The manifest holds the model path and the script, a list of argument
    lists for gibbsfactor.cli.main.
    """
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}; choose from {NAMES}")
    rng = np.random.default_rng([seed, NAMES.index(workload)])
    os.makedirs(out_dir, exist_ok=True)
    model = os.path.join(out_dir, f"{workload}.json")
    if workload == "sweep-fs4":
        doc = _depth_matched_full_shift(rng, 4, 2)
        n_max, max_period = ("2", "3") if smoke else ("6", "7")
        points = [_point(rng, 2, 3, 3) for _ in range(1 if smoke else 3)]
        script = [
            ["check", model],
            ["gibbs", model, "--n-max", n_max, "--invariance"],
            ["holder", model, "--n-max", n_max],
            ["periodic", model, "--max-period", max_period],
        ] + [["potential", model, "--point", pt] for pt in points]
    elif workload == "certify-narrow":
        doc = _full_shift(rng, 4, 2) if smoke else _full_shift(rng, 6, 3)
        nb = 2 if smoke else 3
        script = [
            ["check", model],
            ["potential", model, "--point", _point(rng, nb, 2, 2)],
        ]
    elif workload == "wide-fibers":
        doc = _full_shift(rng, 8, 2) if smoke else _full_shift(rng, 80, 2)
        script = [
            ["check", model],
            ["periodic", model, "--max-period", "2" if smoke else "4"],
            ["potential", model, "--point", "/01"],
        ]
    else:
        gamma = float(rng.uniform(*GAMMA_RANGE))
        doc = models.expand_example("nongibbs6", gamma=gamma)
        script = [
            ["check", model],
            ["potential", model, "--adaptive", "--point", "/0"],
            ["potential", model, "--point", "1/0"],
            ["periodic", model, "--max-period", "3" if smoke else "7"],
            ["gibbs", model, "--n-max", "2" if smoke else "6"],
        ]
    models.dump_document(doc, model)
    manifest = {"workload": workload, "seed": seed, "smoke": smoke, "model": model, "script": script}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest
