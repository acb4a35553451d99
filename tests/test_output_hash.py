"""``tools/output_hash.py`` runs, and its small set hashes as it always has.

The tool hashes the totals and per-edge diffs of a fixed set of graphs,
their blocks up to order, and the totals and per-edge diffs of a set of
polymers evaluated as ``verify`` does; a change that moves any of those
numbers or blocks changes a pinned hash below.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: the ``--tiny`` set's hashes; the same at every commit that changes no output
TINY_HASH = "10ea8902452f3f441b3f56d5c2db2e7ef4198e32eb4326751718a5ef4a508f2b"
TINY_BLOCKS_HASH = "c106ef5160524392facfbf28a3af0feeb7fd002389e98f994b815352204f4eae"
TINY_VERIFY_HASH = "79162cbc96f7c1f892cdb18b8c15cd231c3fd5b6d12458191cc95e76d239965a"


def test_output_hash_of_the_tiny_set():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "output_hash.py"), "--tiny"],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == (f"{TINY_HASH}  161 graphs\n"
                           f"{TINY_BLOCKS_HASH}  blocks of 161 graphs\n"
                           f"{TINY_VERIFY_HASH}  verify's path over 79 polymers\n")
