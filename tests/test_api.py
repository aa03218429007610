"""The public names, pinned as the report digests are: a name leaves or joins `linsemi.__all__` on purpose."""
import types

import linsemi

PUBLIC = """
    AlgebraError CrossConn DualMorphism Endo Factorization HFunctor Mat
    ModulusMismatch Morphism NormalCone NotACone NotADirectSum NotClosed NotIdempotent NotInSandwich
    NotIncluded NotInduced NotInvertible NotSingular ShapeError Side Subspace SubspaceFilter
    TooLarge VariantContext all_endos annihilator build_normal_dual canonical check_chi_naturality
    classify_crossconnections complement cone_census cone_compose cone_to_map enumerate_subspaces
    epimorphic_component gamma_delta_theta gaussian_binomial gl idempotent_from idempotents
    inclusion invert is_crossconnection is_local_isomorphism is_prime kernel_basis make_variant
    mat_to_text mult_table nat_trans nonprincipal_cones normal_factorization parse_mat phi
    principal_cone rank recover_theta regular_elements retraction row_basis rref
    sandwich sing sing_order validate_cone variant_crossconnection
""".split()


def test_public_names_are_pinned():
    assert sorted(linsemi.__all__) == PUBLIC


def test_submodules_are_attributes_not_exports():
    for name in ("crossconn", "dual", "errors", "gf", "indexed", "normal_cones", "semigroup", "subspaces", "variants"):
        assert isinstance(getattr(linsemi, name), types.ModuleType)
        assert name not in linsemi.__all__


def test_only_indexed_decodes_an_index():
    # How an index encodes a product, a vector or V is known to `indexed` alone.
    import pathlib
    import re

    decoding = re.compile(
        r"len\(u\.transpose\)|\* q [+:]|len\(u\.subspaces\) - 1|enumerate\(u\.vectors\)|u\.elements\[:|u\.p \*\* \(u\.n"
    )
    found = {
        f"{path.name}:{line}"
        for path in pathlib.Path(linsemi.__file__).parent.glob("*.py")
        if path.name != "indexed.py"
        for line, text in enumerate(path.read_text().splitlines(), 1)
        if decoding.search(text)
    }
    assert found == set()


# Public top-level definitions that no other module of the package names, each with why it stays.
KEPT_WITHOUT_CALLER = {
    "dual.dual_morphisms": "the normal dual's hom-sets by carrier: the tests' reference for their sizes and composition",
    "semigroup.idempotents": "the tests' reference for the row-prefix scan behind Universe.idempotents",
    "subspaces.transport_morphism": "S_a^-1 f S_b for one morphism: the tests' reference for functor_from_global",
    "subspaces.zero_subspace": "the zero object of the lattice, which the tests name in expected values",
    "subspaces.full_subspace": "V as a subspace, which the tests name in expected values",
}


def test_every_public_definition_has_a_caller():
    # A public function or class that no other module names is test-only code, unless it is kept above.
    import ast
    import pathlib

    trees = {
        path.stem: ast.parse(path.read_text())
        for path in pathlib.Path(linsemi.__file__).parent.glob("*.py")
        if path.name != "__init__.py"
    }
    named = set()
    for tree in trees.values():
        modules = {  # the names this module binds package modules to, as in `from . import semigroup as sg`
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                named.add(node.attr)  # `sg.idempotents` names the function; `u.idempotents` does not
            elif isinstance(node, ast.alias):
                named.add(node.name)
    uncalled = {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_") and node.name not in named
    }
    assert uncalled == set(KEPT_WITHOUT_CALLER)


def test_only_gf_builds_complements_and_projections():
    # Unit rows, pivot complements and projections along a decomposition are `gf`'s:
    # elsewhere they are `Mat.identity`, `pivot_complement` and `projection`.
    import pathlib
    import re

    inline = re.compile(r"1 if \w+ == \w+ else 0|invert\(\w+\.vstack|Mat\.zeros\(.*\)\.vstack\(")
    found = {
        f"{path.name}:{line}"
        for path in pathlib.Path(linsemi.__file__).parent.glob("*.py")
        if path.name != "gf.py"
        for line, text in enumerate(path.read_text().splitlines(), 1)
        if inline.search(text)
    }
    assert found == set()


def test_only_the_batch_builders_skip_record_validation():
    # `tuple.__new__` builds a record without its checks: a record's own `__new__` calls it
    # and then `__post_init__`; the two batch builders call it for values valid by construction.
    import ast
    import pathlib

    def constructs(node):
        return any(
            isinstance(x, ast.Attribute) and x.attr == "__new__" and isinstance(x.value, ast.Name) and x.value.id == "tuple"
            for x in ast.walk(node)
        )

    found = set()
    for path in pathlib.Path(linsemi.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in top.body if isinstance(top, ast.ClassDef) else [top]:
                if constructs(node):
                    name = getattr(node, "name", f"line {node.lineno}")
                    found.add(f"{path.stem}.{name}" if node is top else f"{path.stem}.{top.name}.{name}")
    assert found == {
        "dual.HFunctor.__new__",
        "gf.all_matrices",
        "indexed.Elements.__iter__",
        "semigroup.Endo.__new__",
        "subspaces.Morphism.__new__",
    }
