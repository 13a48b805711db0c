"""Seeded outputs are byte-reproducible: scripts/seeded_outputs.py at
`--n 200 --seeds 1` prints the committed listing, tests/seeded_outputs.txt,
under any PYTHONHASHSEED. A deliberate output change rewrites the listing
in the same change (the script's docstring gives the command)."""

import difflib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LISTING = Path(__file__).resolve().parent / "seeded_outputs.txt"


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_seeded_outputs_match_the_committed_listing(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "seeded_outputs.py"), "--n", "200",
         "--seeds", "1"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert res.returncode == 0, res.stderr
    want = LISTING.read_text().splitlines(keepends=True)
    got = res.stdout.splitlines(keepends=True)
    if got[0] != want[0]:
        pytest.fail(f"the listing was made under {want[0].strip()!r} and this run under "
                    f"{got[0].strip()!r}: compare under the listing's versions")
    if got != want:
        pytest.fail("seeded outputs moved:\n" + "".join(
            difflib.unified_diff(want, got, str(LISTING), "regenerated")))
