"""Byte identity of the CLI reports against recorded digests.

No `verify-all` digest equals `perfbench/reference_digests.json` any more;
`perfbench/run.py` records that file only as provenance. The digests at
(2, 2) and (3, 2), where nothing skips, were retaken when `dual.naturality`
and `crossconn.chi-naturality` were cut down to the claims they still test:
`dual.naturality` counts escape cases, names Light's associativity test, its
generators and the elements they reach, and is never capped;
`crossconn.chi-naturality` counts one identity per morphism and element and
checks the same automorphisms as the other GL checks. The digests at
(2, 1), (5, 2), (2, 3), (3, 3), (2, 4) and (2, 5) were retaken when the skip
texts came to be written by `verify.BUDGETS`, one budget table, and name the
cost, its value and the limit, or the rule and the observed p and n; the
same checks skip as before, and no other byte changed. The subcommand digests
were taken before the two local-isomorphism checkers were merged and the
subcommands were made to read the check registry, except the variant report
for theta = 0,0;1,0, retaken when its crossconnection check started to
include the restricted gamma functor, the rank-2 variant at (2, 3), taken
before the pair-table route moved onto the Cayley table, and every report
that carries one of the two naturality checks, retaken with them. A change
to the report bytes has to update them on purpose.
"""
import hashlib

import pytest

from linsemi import indexed, semigroup
from linsemi.cli import main

DIGESTS = {
    (2, 2): "59d7f700156b698fd1162c5bc78b4b21feda73b7603d554d2750fbbbc096a16a",
    (2, 4): "38b9852c716549ace10d30a06109cc314d7d8173f8d6bd9818927c5ed3fc4e5c",
    # p = 3 puts scalar multiples into the join recurrence and the squares.
    (3, 3): "cc67b7114262a8e30a10dd08fe9d31a9480838acaa28d642ef1440202cc79657",
    # Every check runs, on the Cayley table: about 10 s.
    (3, 2): "bb54b4ced3c1b73a8c91620d37f2f4c6df075982711853c2507f9eb1b950dbb1",
    # Cones compose by lookup here: about 3 s, with the compose-homomorphism cap.
    (2, 3): "f4478dcd24f9b766673cf7e646ccf32117bfd2f2fd615aadabbf18392d39b89c",
    # variant.crossconnection is not applicable at n = 1, where the only
    # singular theta is 0.
    (2, 1): "f0984fba69f431cf01c87d11f8191b8b0c53e1922c554edb32bfc6b2fa4cda32",
    # green-oracle, sing-regular and hfunctor-determined run at (5, 2), which
    # no other digest here covers: about 2.5 s.
    (5, 2): "d6276bde1adb5532deec06cfd622e056541db36ce34669809b38233ae2d8506e",
    # The lattice checks and dual.object-count are almost the whole run here,
    # over 374 subspaces, and 24 checks skip.
    (2, 5): "d5c59a8898fbe0676ed885580994a31a8d2e0b62a410f2755a90ed6c8c0abbb2",
    # p = 5 scalars enter the lattice, and only the lattice checks and
    # dual.object-count do real work; 24 checks skip: about 1.6 s.
    (5, 4): "62152ce480de79773950ae1356f29984500cc29eac6eeccd7cd09445d3703653",
    # p = 3 and n = 5 bases fill the lattice, 2 664 subspaces: about 1.3 s.
    (3, 5): "481bbd048b406cdebb61b93bda47329259111bc05b41cc8fbba1f642d14a1f2e",
}

# argv -> sha256 of the report; every subcommand in JSON, and the lattice
# listing, which only the text report carries.
SUBCOMMAND_DIGESTS = {
    "lattice --p 2 --n 2 --json": "5974fa108424623692b7de8bad268ccb6b8b1a79cbff63885b451561c8ff6bad",
    "lattice --p 3 --n 2 --json": "7db9765e50c07ef1fde513c9124ed45995d0292370a90d338e5b174f24967258",
    "lattice --p 2 --n 2": "6cd82aded41197a57e1840f0a068e9ce5570967d3cdb951c5d91e05bedc670d6",
    "lattice --p 3 --n 2": "2eae24958eebd9b60e3c28cbe36c35cda6e49d49a622aaf90fc1f93391af2362",
    "semigroup --p 2 --n 2 --json": "a7d9b6cad435627ccf6f1a1d6f389f3f67cfb429df0f7ff66bd13e86a3322ffc",
    "cones --p 2 --n 2 --json": "abb82fd16ed8c4b0f07fdf09fb4d0d27d7e599af77a3e837ecc33f265ef39595",
    "cones --p 2 --n 2 --census --json": "3d5a6ec60c6805ef0df0dc896700ca8878433f1111eb9e2cf9e27b373ac2c0dc",
    "dual --p 2 --n 2 --json": "db2b159c7a40f28abbc0bec55b3e8eaf77c34e14144f734df0d45979cc1f14e1",
    "crossconn --p 2 --n 2 --json": "4a893bd68f12895016397316ee4e3159c27e030c3a116faa2c24db5ada9eb0a6",
    "crossconn --p 2 --n 2 --classify --json": "1c0695c656d9206bb8ee22c6013b8782e8d856dbf675dd10e020a3fc33194943",
    "crossconn --p 2 --n 2 --theta 0,1;1,0 --json": "b15ae55ab4f7f977958ce3b49613b54b7806c48f24e34a494c52aaac4ec7ef89",
    "crossconn --p 3 --n 2 --theta 0,1;1,1 --json": "f3c37d17647d8ee775b085bb53a7eca31b5365581ca596acf6505ef5cdb86510",
    "variant --p 2 --n 2 --theta 1,0;0,0 --json": "5a9dcb92d0882172d35401aaac38a7bc75fa0926aec9123c9ba33e9a37d429bf",
    "variant --p 3 --n 2 --theta 1,0;0,0 --json": "96864942008bacbd420ca43affbb1e09da5fdb27978190cfa99559d725a2b7c6",
    "variant --p 3 --n 2 --theta 0,0;1,0 --json": "79c09aec9f6290d2785c2180d3dcd07c86fd91182109b2f3304c6fbe076f85e3",
    # A rank-2 theta: a 133-element regular part, whose iso_witness covers the pair table.
    "variant --p 2 --n 3 --theta 1,0,0;0,1,0;0,0,0 --json": "cef83ad082f0c939811bfb6a829247fc80027328182b25187dfe61d4e8cf7425",
    # The linked semigroup of order 145.
    "crossconn --p 5 --n 2 --theta 0,1;1,0 --json": "828901d3a120d6888a2cdc177fe7bbaf4a997d97d24cd99d547a8cd67d019fcd",
    # Taken at commit 916ac0d, before the per-theta verdicts of `crossconn --theta`
    # and `variant` moved into the check registry's module: an invertible theta
    # (no restricted functors are built), the two n = 1 forms, each variant group
    # alone, and the text report of the failing variant.
    "variant --p 2 --n 2 --theta 0,1;1,0 --json": "2ea47dea11f857886a087e73a1d628f5f7e198f6aaf0f8e5189207ad9d529e15",
    "variant --p 2 --n 1 --theta 0 --json": "7434f6e4a4f17ca5056cffde1f617c34b7f74a24764d4d7d071817e6eed4956d",
    "crossconn --p 2 --n 1 --theta 1 --json": "4a668d8b1757bbaa1023818b2c592d4a392481b5c4b54a5b5fbfe80f0316ca82",
    "variant --p 2 --n 2 --theta 1,1;0,0 --reg --json": "1b5d04ba1333d9a2a5d6d92c96978619094a7e10867e46f4571b19f6bfde9707",
    "variant --p 3 --n 2 --theta 1,0;0,0 --cxn --json": "dbe941c17d08b2419be7d60b91715870a411372b4dc8a7368a603cb75b384c7b",
    "variant --p 2 --n 2 --theta 0,0;1,0 --census --json": "0cc72cb22dc7c1c98a807a037c8336244e183061275f2830f0ef6da887d2f6ab",
    "variant --p 3 --n 2 --theta 0,0;1,0": "fea03bba90d0116ab977620e02fd780bda06db91d861337d653f1bc1c01929b5",
}

# rank(theta^2) < rank(theta): the restricted gamma cannot be built, so the
# crossconnection check fails and the command exits 1.
FAILING_SUBCOMMANDS = {"variant --p 3 --n 2 --theta 0,0;1,0 --json", "variant --p 3 --n 2 --theta 0,0;1,0"}


@pytest.mark.parametrize("p,n", sorted(DIGESTS))
def test_verify_all_report_bytes(p, n, capsys):
    if (p, n) == (2, 4):
        semigroup.all_endos.cache_clear()
        indexed.universe.cache_clear()
    code = main(["verify-all", "--p", str(p), "--n", str(n), "--json"])
    out = capsys.readouterr().out.encode()
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == DIGESTS[(p, n)]
    if (p, n) in ((2, 4), (3, 3)):
        # Every check that reads the Cayley table skips at these sizes.
        assert "products" not in vars(indexed.universe(n, p))
    if (p, n) == (2, 4):
        # The checks read index tables; none builds the 65 536 Endos.
        assert semigroup.all_endos.cache_info().currsize == 0


@pytest.mark.parametrize("argv", sorted(SUBCOMMAND_DIGESTS))
def test_subcommand_report_bytes(argv, capsys):
    code = main(argv.split())
    out = capsys.readouterr().out.encode()
    assert code == (1 if argv in FAILING_SUBCOMMANDS else 0)
    assert hashlib.sha256(out).hexdigest() == SUBCOMMAND_DIGESTS[argv]
