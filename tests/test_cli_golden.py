"""CLI output against a recorded copy.

`derive --family F --params=... --n=n0` for each of the 94 family
recipes of the catalog (FR-2 has no family form), `accelerate --terms 6
--chu` for the first recipe of each of their ten families, and
`accelerate --chu` for two tuples whose expanded term quotients have
degree 34 and 19, run in process through ``hyperaccel.cli.main``: exit
code, stdout and stderr must equal ``cli_golden.json``.  Record the file again only for an intended change of
output, from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os

from hyperaccel.catalog import catalog_entries
from hyperaccel.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "cli_golden.json")
# bracket forms with many parameters, whose roots were once slow to find
_MANY_ROOTS = [
    ["accelerate", "--family", "neg-64", "--params=-1/6,-1/4,-3/4", "--n=10/3", "--chu"],
    ["accelerate", "--family", "four-27", "--params=1/12,5/12,1/4", "--n=1000", "--chu"],
]


def _commands():
    derive, accelerate = [], {}
    for e in catalog_entries():
        d = e.derivation
        if d is None or e.id == "FR-2":
            continue
        family = ["--family", d.family.value,
                  "--params=" + ",".join(map(str, d.params))]
        derive.append(["derive", *family, f"--n={d.n0}"])
        accelerate.setdefault(d.family, ["accelerate", *family, f"--n={d.n0}",
                                         "--terms", "6", "--chu"])
    return derive + list(accelerate.values()) + _MANY_ROOTS


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def test_cli_output_matches_the_recorded_copy():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    commands = _commands()
    assert len(commands) == 106
    assert [g["argv"] for g in golden] == commands
    for want in golden:
        assert _run(want["argv"]) == want


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump([_run(argv) for argv in _commands()], fh, indent=1)
        fh.write("\n")
