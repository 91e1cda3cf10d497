"""Write the CLI transcripts of the benchmark scripts to one JSON file.

    PYTHONPATH=src python tools/cli_transcripts.py OUT.json [--seeds 1 2 3] [--smoke]

Each workload of bench/workloads.py is generated for each seed in a temporary
directory, and every command of its script runs in process through
gibbsfactor.cli.main.  OUT.json holds, per command, the argument list without
the model path, the exit code, stdout and stderr, with sorted keys, so the
output of two commits compares with cmp.  The gibbsfactor under test is the
one on PYTHONPATH; the workloads come from this tree's bench/.
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
from gibbsfactor import cli  # noqa: E402


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def transcripts(seeds: list[int], smoke: bool) -> dict:
    records = {}
    for name in workloads.NAMES:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                manifest = workloads.generate(name, seed, tmp, smoke=smoke)
                for i, argv in enumerate(manifest["script"]):
                    code, stdout, stderr = run(argv)
                    records[f"{name}/seed{seed}/{i:02d}"] = {
                        "argv": [a for a in argv if a != manifest["model"]],
                        "exit": code,
                        "stdout": stdout,
                        "stderr": stderr,
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
