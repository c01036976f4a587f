"""Record references.json: every job's exact result, from the engine as it stands.

    python3 perfbench/record.py

Each in-process job runs under two seeds, which must agree (the results are
invariants); each CLI command runs cold and warm, which must agree.  Run this
only when a change of output is intended, and say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

sys.path.insert(0, run.SRC)
os.environ.pop("HHALG_CACHE_DIR", None)

import workloads  # noqa: E402


def main():
    refs = {}
    for w, make_jobs in workloads.IN_PROCESS.items():
        first, second = ({name: thunk() for name, thunk in make_jobs(seed)}
                         for seed in (0, 1))
        if first != second:
            raise SystemExit(f"{w}: results depend on the seed")
        refs[w] = first
    os.makedirs(run.TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=run.TMP_PARENT)
    try:
        refs["cli_corpus"] = {}
        for command in workloads.CLI_COMMANDS:
            cache_dir = tempfile.mkdtemp(dir=tmp)
            argv = workloads.cli_argv(command)
            _, cold = run.cli_subprocess(argv, cache_dir, tmp)
            _, warm = run.cli_subprocess(argv, cache_dir, tmp)
            if cold != warm:
                raise SystemExit(f"{command}: warm output differs from cold")
            refs["cli_corpus"][command] = cold
    finally:
        shutil.rmtree(tmp)
        os.rmdir(run.TMP_PARENT)
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
