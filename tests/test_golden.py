"""Byte identity of the CLI reports against recorded digests.

The `verify-all` digests other than (2, 1) are those of
`perfbench/reference_digests.json`, taken from the reports of the seed
implementation; the subcommand digests were taken before the two
local-isomorphism checkers were merged and the subcommands were made to read
the check registry, except the variant report for theta = 0,0;1,0, retaken
when its crossconnection check started to include the restricted gamma
functor, and the two reports of the linked-pair and pair-table routes (the
rank-2 variant at (2, 3) and the linked semigroup of order 145 at (5, 2)),
taken before those routes moved onto the Cayley table. A change to the
report bytes has to update them on purpose.
"""
import hashlib

import pytest

from linsemi import indexed, semigroup
from linsemi.cli import main

DIGESTS = {
    (2, 2): "9d6419586302d1c6771012d59271d50eca28e2bb41c3c355a72fbcf313dcb7a9",
    (2, 4): "1abf263def5d145bafb5e073be797cac235837fa578585b664c507d4879371e4",
    # p = 3 puts scalar multiples into the join recurrence and the squares.
    (3, 3): "f6e2fa052cb2e93f41044305130f61d9e99e8a25830a44dfbbbdcfe4ef6dd550",
    # Every check runs, on the Cayley table: about 10 s.
    (3, 2): "469c3410007d6d9d7dcac65a4b358069675ae58098b291ff6ee44b6b177989c2",
    # Cones compose by lookup here: about 3 s, with the compose-homomorphism cap.
    (2, 3): "a9a99b8bee5a04aea244c39474ecea92f60341683771ad1729e86cf81902887d",
    # Taken when variant.crossconnection became not applicable at n = 1,
    # where the only singular theta is 0.
    (2, 1): "919017a337e3622d683c5f3c7b7b88cb32c8494560382e7bfb0b8da55e390b7b",
    # Taken at commit f052eec, before green-oracle, sing-regular and
    # hfunctor-determined moved onto the index tables; all three run at
    # (5, 2), which no other digest here covers: about 2.5 s.
    (5, 2): "97491501c0339155c2ce791a730fa6a6708dbacbc5360ee5ab14ffb2b546b41d",
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
    "dual --p 2 --n 2 --json": "8ec6a4f8a54592a042bf6ee3950d48d2a08a191313a627516bd96e48b15231f4",
    "crossconn --p 2 --n 2 --json": "8a22f9079115563d79a036ebb8151a043b84573dfe56b673312b9a0600a0952c",
    "crossconn --p 2 --n 2 --classify --json": "c1af5292f6403bea481e28536dad2061e60609dcb6a7ec70229b90a46286036a",
    "crossconn --p 2 --n 2 --theta 0,1;1,0 --json": "b87f4c723e6335585433381dfe9947133c2fede0281184e462bb8b42958719d7",
    "crossconn --p 3 --n 2 --theta 0,1;1,1 --json": "30c2bcc7f5942ccc75f6cf4b54474ecc0125c5ccbaefc1520a45b762557d6a95",
    "variant --p 2 --n 2 --theta 1,0;0,0 --json": "5a9dcb92d0882172d35401aaac38a7bc75fa0926aec9123c9ba33e9a37d429bf",
    "variant --p 3 --n 2 --theta 1,0;0,0 --json": "96864942008bacbd420ca43affbb1e09da5fdb27978190cfa99559d725a2b7c6",
    "variant --p 3 --n 2 --theta 0,0;1,0 --json": "79c09aec9f6290d2785c2180d3dcd07c86fd91182109b2f3304c6fbe076f85e3",
    # A rank-2 theta: a 133-element regular part, whose iso_witness covers the pair table.
    "variant --p 2 --n 3 --theta 1,0,0;0,1,0;0,0,0 --json": "cef83ad082f0c939811bfb6a829247fc80027328182b25187dfe61d4e8cf7425",
    # The linked semigroup of order 145.
    "crossconn --p 5 --n 2 --theta 0,1;1,0 --json": "fa8a22447c68c7978df51c7281ff4c4f53c5faf0e976dff51238f8447d5ead1d",
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
