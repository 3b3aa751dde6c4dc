"""The gradient suite at its default tolerances: every tensor op, the
composed butterfly fusion, and the full training loss, which runs the
codec's own inter step, all against central finite differences."""

from bnvc.gradsuite import butterfly_check, op_checks, pipeline_check


def test_every_op_matches_finite_differences():
    failed = [r.line() for r in op_checks() if not r.passed]
    assert not failed, failed


def test_butterfly_fusion_matches_finite_differences():
    result = butterfly_check()
    assert result.passed, result.line()


def test_full_pipeline_matches_finite_differences():
    result = pipeline_check(per_param=1)
    assert result.passed, result.line()
