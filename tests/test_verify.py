"""Every invariant suite behind `fieldchannel verify`, one test each."""

import pytest

from fieldchannel import verify


@pytest.mark.parametrize("suite", [fn for _, fn in verify.ALL_SUITES],
                         ids=[name for name, _ in verify.ALL_SUITES])
def test_suite_passes(suite):
    result = suite()
    assert result.passed, f"worst={result.worst:.6e} {result.detail}"


def test_w_sign_mutation_caught():
    # reversing the antisymmetric part of W must fail the BCH suite
    assert not verify.suite_bch_consistency(flip_sign=True).passed
