"""Byte identity of the `verify-all --json` report against recorded digests.

The digests are those of `perfbench/reference_digests.json`, taken from the
reports of the seed implementation; a change to the report bytes has to
update them on purpose.
"""
import hashlib

import pytest

from linsemi.cli import main

DIGESTS = {
    (2, 2): "9d6419586302d1c6771012d59271d50eca28e2bb41c3c355a72fbcf313dcb7a9",
    (2, 4): "1abf263def5d145bafb5e073be797cac235837fa578585b664c507d4879371e4",
}


@pytest.mark.parametrize("p,n", sorted(DIGESTS))
def test_verify_all_report_bytes(p, n, capsys):
    code = main(["verify-all", "--p", str(p), "--n", str(n), "--json"])
    out = capsys.readouterr().out.encode()
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == DIGESTS[(p, n)]
