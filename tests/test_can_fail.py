"""Every verdict has a test that makes it fail.

A verdict that always passes proves nothing, so each `REGISTRY` check and each `theta_*` verdict is
mapped to one test, under `tests/`, that feeds it a doctored input and asserts the failure. Replacing
the verdict by one that returns True with its real witness makes that test fail. A new or renamed
verdict needs its entry here.
"""
import ast
import pathlib

from linsemi import verify

DOCTORED_TABLE = "test_indexed.py::test_product_verdicts_reject_a_doctored_cayley_table"

CAN_FAIL = {
    "lattice.subspace-counts": "test_lattice.py::test_subspace_counts_compare_with_the_gaussian_binomials",
    "lattice.complement-counts": "test_lattice.py::test_complement_counts_compare_each_count",
    "lattice.annihilator-involution": "test_lattice.py::test_annihilator_involution_reads_every_annihilator",
    "lattice.annihilator-antitone": "test_lattice.py::test_annihilator_antitone_reads_every_pair",
    "lattice.inclusion-splitting": "test_subspaces.py::TestInclusion::test_splitting_check_rejects_a_zero_retraction",
    "semigroup.order-formula": "test_indexed.py::test_order_check_fails_on_a_doctored_image",
    "semigroup.green-oracle": DOCTORED_TABLE,
    "semigroup.idempotents":
        "test_semigroup.py::TestIdempotents::test_certificate_rejects_another_complement_as_kernel",
    "semigroup.sing-regular": DOCTORED_TABLE,
    "cones.factorization": "test_cones.py::TestFactorization::test_check_rejects_a_wrong_factorization_of_one_morphism",
    "cones.principal-roundtrip": "test_cones.py::TestConeToMap::test_roundtrip_check_fails_when_a_cone_maps_elsewhere",
    "cones.compose-homomorphism": DOCTORED_TABLE,
    "cones.idempotent-law":
        "test_cones.py::TestValidateAndCensus::test_idempotent_law_rejects_a_composition_that_keeps_its_first_cone",
    "cones.census": "test_cones.py::TestValidateAndCensus::test_check_rejects_a_census_missing_one_valid_cone",
    "cones.table-isomorphic": DOCTORED_TABLE,
    "dual.hfunctor-determined": "test_dual.py::TestHSet::test_check_rejects_doctored_decompositions",
    "dual.mset-characterizations": "test_dual.py::TestMSet::test_check_rejects_a_disturbed_zero_set",
    "dual.object-count": "test_lattice.py::test_dual_object_count_compares_the_inclusions",
    "dual.table-op": DOCTORED_TABLE,
    "dual.naturality": "test_indexed.py::test_naturality_verdicts_reject_every_doctored_row",
    "crossconn.gl-batch": "test_crossconn.py::test_gl_batch_fails_with_the_one_theta_whose_verdict_fails",
    "crossconn.chi-naturality": "test_crossconn.py::TestChiNaturality::test_failing_square_gives_text_witness",
    "crossconn.linked-semigroup":
        "test_crossconn.py::TestLinkedSemigroup::test_check_rejects_a_broken_homomorphism_for_one_theta",
    "crossconn.scalar-invariance":
        "test_crossconn.py::TestClassification::test_scalar_invariance_check_rejects_one_doctored_scaled_theta",
    "crossconn.classification":
        "test_crossconn.py::TestClassification::test_check_rejects_a_broken_homomorphism_for_one_census_theta",
    "variant.reg-closed": "test_variants.py::test_reg_closed_fails_with_the_one_theta_whose_verdict_fails",
    "variant.phi-homomorphism": DOCTORED_TABLE,
    "variant.membership-laws": "test_indexed.py::test_membership_check_reads_the_annihilator_table",
    "variant.crossconnection": "test_variants.py::TestVariantCrossconnection::test_check_names_the_functors_that_fail",
    "variant.nonprincipal-excess":
        "test_variants.py::TestNonprincipal::test_census_fails_when_every_element_counts_as_regular",
    "theta_crossconnection":
        "test_crossconn.py::test_theta_crossconnection_fails_when_a_functor_loses_an_identity",
    "theta_chi_naturality": "test_crossconn.py::TestChiNaturality::test_failing_square_gives_text_witness",
    "theta_linked_semigroup":
        "test_crossconn.py::TestLinkedSemigroup::test_check_rejects_a_broken_homomorphism_for_one_theta",
    "theta_recover_roundtrip":
        "test_crossconn.py::test_theta_recover_roundtrip_fails_on_another_automorphisms_delta",
    "theta_variant_reg": "test_variants.py::test_reg_closed_fails_when_the_rank_test_misreads_a_rank",
    "theta_variant_crossconnection":
        "test_variants.py::TestVariantCrossconnection::test_check_rejects_a_variant_table_that_multiplies_otherwise",
    "theta_nonprincipal_census":
        "test_variants.py::TestNonprincipal::test_census_fails_when_every_element_counts_as_regular",
}


def test_every_verdict_is_mapped():
    thetas = {name for name in vars(verify) if name.startswith("theta_") and callable(getattr(verify, name))}
    assert set(CAN_FAIL) == {name for name, _ in verify.REGISTRY} | thetas


def test_every_mapped_test_exists():
    here = pathlib.Path(__file__).parent
    for target in set(CAN_FAIL.values()):
        file, *path = target.split("::")
        scope = ast.parse((here / file).read_text()).body
        for name in path:
            found = [node for node in scope if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name]
            assert found, target
            scope = found[0].body
        assert path[-1].startswith("test_"), target
