import hahnsl2
from hahnsl2 import cli, freealg, hahn, linalg, usl2


def test_every_exported_name_resolves():
    missing = [name for name in hahnsl2.__all__ if not hasattr(hahnsl2, name)]
    assert missing == []
    assert len(set(hahnsl2.__all__)) == len(hahnsl2.__all__)


def test_names_the_benchmark_calls_resolve():
    # bench/child.py and bench/tracer.py call these names with no fallback,
    # so a change that drops one breaks the benchmark; bench/ is not imported
    for owner, attr in (
        (cli, "main"),
        (freealg, "FreePoly"),
        (freealg, "ideal_membership"),
        (freealg.MembershipCertificate, "as_json_dict"),
        (freealg.MembershipCertificate, "replay"),
        (hahn, "presentation"),
        (usl2._core_product, "cache_info"),
        (linalg.SparseMatrix, "matmul"),
        (linalg.SparseMatrix, "items"),
        (linalg.EchelonBasis, "insert"),
    ):
        assert callable(getattr(owner, attr, None)), (owner, attr)
    assert hahn.presentation().relators
    assert hahn.ALPHABET == ("A", "B")
    assert isinstance(linalg.Combination.terms, property)
