"""The gradient suite at its default tolerances: the composed butterfly
fusion and the full training loss, which runs the codec's own inter
step, both against central finite differences. The per-op checks run
over 20 seeds in test_tensor.py."""

from bnvc.gradsuite import butterfly_check, pipeline_check


def test_butterfly_fusion_matches_finite_differences():
    result = butterfly_check()
    assert result.passed, str(result)


def test_full_pipeline_matches_finite_differences():
    result = pipeline_check(per_param=1)
    assert result.passed, str(result)
