"""Record semantics: every value type is a NamedTuple, immutable, equal and hashed by its fields."""
import os
import pathlib
import subprocess
import sys

import pytest

import linsemi
from linsemi import indexed, verify
from linsemi.crossconn import gamma_delta_theta
from linsemi.dual import DualMorphism, HFunctor, nat_trans
from linsemi.errors import ShapeError
from linsemi.gf import Mat
from linsemi.normal_cones import category, principal_cone
from linsemi.semigroup import Endo
from linsemi.subspaces import Morphism, canonical
from linsemi.variants import make_variant

LINE = canonical([[1, 0]], 2, 2)
E11 = Endo(Mat.make([[1, 0], [0, 0]], 2))


def records():
    """One value of each record type, built at (2, 2)."""
    one = Endo.identity(2, 2)
    return {
        "Mat": Mat.identity(2, 2),
        "Subspace": LINE,
        "Morphism": Morphism.identity(LINE),
        "Endo": one,
        "SubspaceCategory": category(2, 2),
        "NormalCone": principal_cone(E11),
        "HFunctor": HFunctor(LINE),
        "DualMorphism": nat_trans(E11, E11, E11),
        "CrossConn": gamma_delta_theta(one)[1],
        "VariantContext": make_variant(one),
        "Check": verify.Check("demo", True),
        "Universe": indexed.universe(2, 2),
    }


@pytest.mark.parametrize("name", sorted(records()))
def test_assigning_a_field_raises(name):
    record = records()[name]
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("name", sorted(set(records()) - {"Universe"}))
def test_equal_fields_give_equal_values(name):
    record = records()[name]
    # An Endo has Mat's fields and is built from the matrix that holds them.
    again = Endo(Mat(*record)) if name == "Endo" else type(record)(*record)
    assert again == record and again is not record
    if name != "CrossConn":  # its maps are dicts, so it has no hash
        assert hash(again) == hash(record)


def test_universe_equals_only_itself():
    u = indexed.universe(2, 2)
    copy = u._replace()
    assert u == u and not u != u
    assert copy != u and not copy == u and u != tuple(u)
    assert {u: 1}.get(copy) is None and {u: 1}[u] == 1


def test_dual_morphism_ignores_its_carrier():
    dm = nat_trans(E11, E11, E11)
    other = dm._replace(carrier=Endo.identity(2, 2))
    assert other == dm and hash(other) == hash(dm)
    assert dm._replace(fmat=dm.fmat.scale(0)) != dm
    assert dm != Morphism(dm.dom, dm.cod, dm.fmat)


def test_non_square_endo_raises():
    with pytest.raises(ShapeError):
        Endo(Mat.make([[1, 0, 0], [0, 1, 0]], 2))


def test_post_init_runs_once_per_construction(monkeypatch):
    built = []
    for cls in (Endo, Morphism):
        check = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self, check=check: built.append(self) or check(self))
    a = Endo(Mat.make([[1, 1], [0, 1]], 2))
    products = [a @ a, a.transpose(), Endo.identity(2, 2)]
    f = Morphism.identity(LINE)
    g = f.compose(f)
    assert built == [a, *products, f, g]


def test_cli_import_loads_no_dataclasses():
    # -S: what an environment's site hooks import is not linsemi's doing.
    code = "import linsemi.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(linsemi.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_source_never_names_dataclass():
    found = {
        f"{path.name}:{line}"
        for path in pathlib.Path(linsemi.__file__).parent.glob("*.py")
        for line, text in enumerate(path.read_text().splitlines(), 1)
        if "dataclass" in text
    }
    assert found == set()
