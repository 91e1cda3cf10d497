"""Write the CLI transcripts of the benchmark scripts to one JSON file.

    PYTHONPATH=src python tools/cli_transcripts.py OUT.json [--seeds 1 2 3] [--smoke]

Each workload of bench/workloads.py is generated for each seed in a temporary
directory, and every command of its script runs in process through
gibbsfactor.cli.main.  OUT.json holds, per command, the argument list without
the model path, the exit code, stdout and stderr, and every evaluation the
command made: evaluate_many and eigendata_many are wrapped where the potential
and gibbs modules look them up, and each call's results are recorded in order
with value, radius, terms, mode and clusters as JSON floats (which read back
bit for bit) and the notes, which name the route an evaluation took, None
for a point eigendata_many leaves to the forward scan, and the message of a
refusal; an eigendata_many slot also records its Perron data's rho,
second_modulus, residual and iterations as JSON numbers.  Without constants
evaluate_many routes its points through one eigendata_many call, which is
recorded as a call of its own, just before the evaluate_many call.  Every
uniform_constants result the CLI computes is recorded too: tau, theta, c1,
d_const, c_total and k_gibbs as JSON floats, window and gap, or the message
of a refusal.  Keys are sorted, so the output of two commits compares with
cmp, bit for bit in every evaluation and constant and not only in the
printed digits.  The gibbsfactor under test is the one on PYTHONPATH; the
workloads come from this tree's bench/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

# one BLAS thread, as in the benchmark worker
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# importing the bench modules must leave no bytecode under bench/
sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
sys.path.append(os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from gibbsfactor import cli, gibbs, potential  # noqa: E402
from gibbsfactor.errors import GibbsFactorError  # noqa: E402

EVALUATE_MANY, EIGENDATA_MANY = potential.evaluate_many, potential.eigendata_many
UNIFORM_CONSTANTS = cli.uniform_constants
CONSTANT_FIELDS = ("tau", "theta", "c1", "d_const", "c_total", "k_gibbs", "window", "gap")


def evaluation(result) -> object:
    """One slot of an evaluate_many or eigendata_many result as JSON."""
    eigendata = None
    if type(result) is tuple:  # eigendata_many: (evaluation, eigendata)
        result, eigendata = result
    if result is None:
        return None
    if isinstance(result, Exception):
        return {"refused": str(result)}
    record = {
        "value": result.value,
        "radius": result.error_radius,
        "terms": result.terms_used,
        "mode": result.mode,
        "clusters": list(result.clusters),
        "notes": list(result.notes),
    }
    if eigendata is not None:
        record["eigendata"] = {
            "rho": float(eigendata.rho),
            "second_modulus": float(eigendata.second_modulus),
            "residual": float(eigendata.residual),
            "iterations": int(eigendata.iterations),
        }
    return record


@contextlib.contextmanager
def recording(calls: list, constants: list):
    """Append the results of every evaluate_many and eigendata_many call to
    calls, and those of every uniform_constants call of the CLI to constants."""

    def recorded(function):
        def call(*args, **kwargs):
            results = function(*args, **kwargs)
            calls.append([evaluation(r) for r in results])
            return results

        return call

    def recorded_constants(fs):
        try:
            c = UNIFORM_CONSTANTS(fs)
        except GibbsFactorError as exc:
            constants.append({"refused": str(exc)})
            raise
        constants.append({field: getattr(c, field) for field in CONSTANT_FIELDS})
        return c

    patches = [
        (potential, "evaluate_many", EVALUATE_MANY, recorded(EVALUATE_MANY)),
        (gibbs, "evaluate_many", EVALUATE_MANY, recorded(EVALUATE_MANY)),
        (potential, "eigendata_many", EIGENDATA_MANY, recorded(EIGENDATA_MANY)),
        (cli, "uniform_constants", UNIFORM_CONSTANTS, recorded_constants),
    ]
    try:
        for module, name, _, wrapper in patches:
            setattr(module, name, wrapper)
        yield
    finally:
        for module, name, function, _ in patches:
            setattr(module, name, function)


def run(argv: list[str]) -> tuple[int, str, str, list, list]:
    """Exit code, stdout, stderr, evaluations and constants of one
    in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    calls: list = []
    constants: list = []
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), recording(calls, constants):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), calls, constants


def transcripts(seeds: list[int], smoke: bool) -> dict:
    records = {}
    for name in workloads.NAMES:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                manifest = workloads.generate(name, seed, tmp, smoke=smoke)
                for i, argv in enumerate(manifest["script"]):
                    code, stdout, stderr, calls, constants = run(argv)
                    records[f"{name}/seed{seed}/{i:02d}"] = {
                        "argv": [a for a in argv if a != manifest["model"]],
                        "exit": code,
                        "stdout": stdout,
                        "stderr": stderr,
                        "evaluations": calls,
                        "constants": constants,
                    }
    return records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="path of the JSON file to write")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--smoke", action="store_true", help="the benchmark's smoke sizes")
    args = parser.parse_args()
    records = transcripts(args.seeds, args.smoke)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(records)} commands to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
